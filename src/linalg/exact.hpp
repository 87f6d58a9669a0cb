// The exact decision engine's answers as values (linalg/exact.cpp): the
// rank over Q of an integer matrix, whether a square one is singular, and
// whether A x = b has a rational solution, each with the path that settled
// it and the evidence.  la::rank(IntMatrix), la::is_singular and
// la::solvable return the answers alone.
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

/// How the engine settled a singularity question.
enum class SingularPath {
  kResidue,  // nonsingular: det(M) mod primes.back() is nonzero
  kKernel,   // singular: kernel is a nonzero integer vector with M x = 0
  kBounded,  // singular: every prime saw rank <= rank, and 61 x
             // primes.size() exceeds the Hadamard bound on (rank+1)-minors
};

struct SingularityCertificate {
  bool singular = false;
  SingularPath path = SingularPath::kResidue;
  /// Ladder primes eliminated modulo, in order (none for a 0 x 0 matrix).
  std::vector<std::uint64_t> primes;
  std::vector<num::BigInt> kernel;  // kKernel
  std::size_t rank = 0;             // kBounded: the largest rank seen
};

/// Whether square m is singular, with the evidence for that answer only:
/// one elimination modulo the first ladder prime, then the one-prime stop
/// rule or one kernel vector lifted from that elimination, and the ladder
/// after a false drop or for entries too wide to lift.
[[nodiscard]] SingularityCertificate singularity_certificate(
    const IntMatrix& m);

/// How the engine settled whether A x = b has a solution over Q.
enum class SolvablePath {
  kSolution,  // solvable: A x = d b over Z, d > 0
  kPivot,     // unsolvable: rank([A | b]) > r >= rank(A)
  kRanks,     // either: rank(A) and rank([A | b]), each certified
};

struct SolvabilityCertificate {
  bool solvable = false;
  SolvablePath path = SolvablePath::kSolution;
  /// kSolution.
  std::vector<num::BigInt> x;
  num::BigInt d{1};
  /// kPivot: the minor of [A | b] on rows minor_rows and columns
  /// minor_cols (A's pivot columns, then b's) is nonzero modulo prime, so
  /// rank([A | b]) >= a_rank.rank + 1.
  std::uint64_t prime = 0;
  std::vector<std::size_t> minor_rows;
  std::vector<std::size_t> minor_cols;
  /// kPivot and kRanks: rank(A).  Its primes are eliminations of [A | b]
  /// under kPivot, whose first a.cols() columns are A's.
  RankCertificate a_rank;
  RankCertificate ab_rank;  // kRanks: rank([A | b])
};

/// Whether a x = b has a rational solution, with the evidence for that
/// answer only: one elimination of [a | b] modulo the first ladder prime,
/// then a solution lifted from it when b's column is free, or b's pivot
/// and a's rank when it is not.  A false drop, or entries too wide to
/// lift, fall back to certifying both ranks.
[[nodiscard]] SolvabilityCertificate solvability_certificate(
    const IntMatrix& a, const std::vector<num::BigInt>& b);

/// solvability_certificate(a, b).solvable.
[[nodiscard]] bool solvable(const IntMatrix& a,
                            const std::vector<num::BigInt>& b);

}  // namespace ccmx::la
