// The exact rank engine's answer as a value: the rank over Q of an integer
// matrix, the path that settled it, and the evidence (linalg/exact.cpp).
// la::rank(IntMatrix) returns its rank; is_singular and core::solvable
// run on rank.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bigint/bigint.hpp"
#include "linalg/convert.hpp"

namespace ccmx::la {

/// How the engine settled a rank.  Every path starts from r, the rank
/// modulo the first ladder prime, a lower bound on the rank over Q.
enum class RankPath {
  kFullRank,  // r = min(rows, cols): nothing above it
  kKernel,    // cols - r integer kernel vectors, verified exactly
  kLadder,    // more primes, until full rank or the Hadamard stop rule
};

struct RankCertificate {
  std::size_t rank = 0;
  RankPath path = RankPath::kFullRank;
  /// Ladder primes eliminated modulo, in order (none for an empty matrix).
  std::vector<std::uint64_t> primes;
  /// kKernel only: one vector x per column f of free_cols, with M x = 0
  /// over Z, x[f] > 0 and x 0 on the other free columns, so the vectors
  /// are independent and rank <= cols - (cols - rank).
  std::vector<std::vector<num::BigInt>> kernel;
  std::vector<std::size_t> free_cols;
};

/// The rank of m over Q, exactly, with its certificate.
[[nodiscard]] RankCertificate rank_certificate(const IntMatrix& m);

}  // namespace ccmx::la
