#include "linalg/det_crt.hpp"

#include <algorithm>

#include "linalg/crt.hpp"
#include "linalg/det.hpp"
#include "linalg/fp.hpp"
#include "util/narrow.hpp"
#include "util/parallel.hpp"
#include "util/require.hpp"

namespace ccmx::la {

using num::BigInt;

namespace {

/// Bit length of the largest |entry| (0 for the zero matrix).
std::size_t max_entry_bits(const IntMatrix& m) {
  std::size_t bits = 0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      bits = std::max(bits, m(i, j).bit_length());
    }
  }
  return bits;
}

}  // namespace

std::size_t det_crt_prime_count(const IntMatrix& m) {
  CCMX_REQUIRE(m.is_square(), "determinant of a non-square matrix");
  if (m.rows() == 0) return 1;
  // Entries are below 2^k, multi-limb ones included.
  const auto k = util::narrow_cast<unsigned>(max_entry_bits(m) + 1);
  // Need prod p_i > 2 * |det| ; each prime contributes > 61 bits.
  const std::size_t det_bits = hadamard_det_bits(m.rows(), k) + 2;
  return det_bits / kLadderPrimeBits + 1;
}

BigInt det_crt(const IntMatrix& m) {
  CCMX_REQUIRE(m.is_square(), "determinant of a non-square matrix");
  const std::size_t n = m.rows();
  if (n == 0) return BigInt(1);

  std::vector<std::uint64_t> primes(det_crt_prime_count(m));
  for (std::size_t i = 0; i < primes.size(); ++i) {
    primes[i] = next_ladder_prime(i == 0 ? 0 : primes[i - 1]);
  }
  std::vector<std::uint64_t> residues(primes.size(), 0);

  // Independent mod-p eliminations: shard across hardware threads.
  util::parallel_for(0, primes.size(), [&](std::size_t i) {
    residues[i] = det_mod_p(reduce_mod(m, primes[i]), primes[i]);
  });

  CrtFold fold;
  for (std::size_t i = 0; i < primes.size(); ++i) {
    fold.add(residues[i], primes[i]);
  }
  return fold.symmetric();  // det may be negative
}

}  // namespace ccmx::la
