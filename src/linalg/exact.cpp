// The exact decision engine behind la::rank(IntMatrix) and la::is_singular
// (and through them core::solvable): the rank over Q of an integer matrix,
// read off ranks modulo the ladder primes of linalg/crt.hpp.
//
// For each prime p of the ladder, in order, it computes rank_mod_p and keeps
// r, the largest rank seen.  It stops when r = min(rows, cols), which takes
// one prime on full-rank input, or once 61 x (primes used) exceeds a
// Hadamard bound, in bits, on every (r+1) x (r+1) minor.
//
// Why the answer is exact: rank mod p never exceeds the rank over Q, so r
// is a lower bound.  Every prime used saw rank <= r, so each divides every
// (r+1)-minor, and so does their product, which exceeds 2^{61 x primes}.
// Once that passes the bound, every (r+1)-minor is 0 and the rank is r.
// The bound: |det| of a minor is at most the product of its column norms
// (Hadamard), and each of those is at most the norm of the whole column,
// so the r+1 largest column norms bound every (r+1)-minor; likewise rows.
// No randomness is involved: answers and costs repeat run to run.
#include <algorithm>
#include <functional>
#include <numeric>
#include <optional>
#include <vector>

#include "linalg/crt.hpp"
#include "linalg/det.hpp"
#include "linalg/fp.hpp"
#include "linalg/rref.hpp"
#include "obs/obs.hpp"
#include "util/require.hpp"

namespace ccmx::la {

using num::BigInt;

namespace {

// Decision-path meters (docs/OBSERVABILITY.md).  Like bigint.small_ops they
// gate on obs::enabled(), so CCMX_OBS=OFF compiles them out.
const obs::Counter g_calls("linalg.exact.calls");
const obs::Counter g_primes("linalg.exact.primes");
const obs::Counter g_bounded("linalg.exact.bounded");

/// For each nonzero row (by_rows) or column of m, a b with ||line||_2 <=
/// 2^b; largest first.
std::vector<std::size_t> norm_bits(const IntMatrix& m, bool by_rows) {
  const std::size_t lines = by_rows ? m.rows() : m.cols();
  const std::size_t length = by_rows ? m.cols() : m.rows();
  std::vector<std::size_t> bits;
  for (std::size_t a = 0; a < lines; ++a) {
    BigInt squares(0);
    for (std::size_t b = 0; b < length; ++b) {
      const BigInt& v = by_rows ? m(a, b) : m(b, a);
      if (!v.is_zero()) squares += v * v;
    }
    // ||line||^2 < 2^{bit_length}, so ||line|| < 2^{ceil(bit_length / 2)}.
    if (!squares.is_zero()) bits.push_back((squares.bit_length() + 1) / 2);
  }
  std::sort(bits.begin(), bits.end(), std::greater<>());
  return bits;
}

/// Bits bounding |det| of every order x order minor of the lines behind
/// `bits`: the sum of the `order` largest.  0 when fewer than `order` lines
/// are nonzero, as every such minor then has a zero line.
std::size_t top_sum(const std::vector<std::size_t>& bits, std::size_t order) {
  if (order > bits.size()) return 0;
  return std::accumulate(bits.begin(),
                         bits.begin() + static_cast<std::ptrdiff_t>(order),
                         std::size_t{0});
}

/// The Hadamard bound on the minors of m, by columns and by rows.
class MinorBound {
 public:
  explicit MinorBound(const IntMatrix& m)
      : cols_(norm_bits(m, false)), rows_(norm_bits(m, true)) {}

  [[nodiscard]] std::size_t bits(std::size_t order) const {
    return std::min(top_sum(cols_, order), top_sum(rows_, order));
  }

 private:
  std::vector<std::size_t> cols_;
  std::vector<std::size_t> rows_;
};

}  // namespace

std::size_t rank(const IntMatrix& m) {
  const std::size_t full = std::min(m.rows(), m.cols());
  std::size_t r = 0;
  std::size_t primes = 0;
  bool bounded = false;
  std::optional<MinorBound> bound;  // built on the first deficient prime
  std::uint64_t p = 0;
  while (r < full) {
    p = next_ladder_prime(p);
    ++primes;
    r = std::max(r, rank_mod_p(reduce_mod(m, p), p));
    if (r == full) break;
    if (!bound) bound.emplace(m);
    if (kLadderPrimeBits * primes > bound->bits(r + 1)) {
      bounded = true;
      break;
    }
  }
  if (obs::enabled()) {
    g_calls.add();
    g_primes.add(primes);
    if (bounded) g_bounded.add();
  }
  return r;
}

bool is_singular(const IntMatrix& m) {
  CCMX_REQUIRE(m.is_square(), "singularity of a non-square matrix");
  return rank(m) < m.rows();
}

}  // namespace ccmx::la
