#include "bigint/modular.hpp"

#include <array>
#include <bit>
#include <utility>

#include "bigint/bigint.hpp"
#include "util/require.hpp"

namespace ccmx::num {

// Zp::reduce runs Horner over BigInt limbs in base 2^64, so a limb must be
// exactly one word wide — if the limb width ever changes, the reduction has
// to be revisited together with it.
static_assert(BigInt::kLimbBits == 8 * sizeof(std::uint64_t),
              "modular arithmetic assumes one-limb (64-bit) residues");

Zp::Zp(std::uint64_t p) : p_(p) {
  CCMX_REQUIRE(p >= 2 && p < (std::uint64_t{1} << kZpBits),
               "Z_p modulus outside [2, 2^62)");
  shift_ = std::countl_zero(p);
  d_ = p << shift_;
  // The quotient lies in [2^64, 2^65) since d_ >= 2^63; the cast drops
  // the 2^64.  The one 128-bit division, paid once per modulus.
  v_ = static_cast<std::uint64_t>(~ccmx::util::u128{0} / d_);
}

std::uint64_t Zp::reduce(const BigInt& v) const {
  std::uint64_t acc = 0;
  for (std::size_t i = v.limb_count(); i-- > 0;) acc = horner(acc, v.limb(i));
  // Signs of matrix entries are data: select the negation by a mask, not a
  // branch.
  const std::uint64_t negative =
      std::uint64_t{0} - static_cast<std::uint64_t>(v.is_negative());
  return acc ^ ((acc ^ neg(acc)) & negative);
}

std::uint64_t Zp::inv(std::uint64_t a) const {
  // Extended Euclid in signed words: every cofactor stays within p < 2^62.
  std::int64_t t = 0;
  std::int64_t new_t = 1;
  std::uint64_t r = p_;
  std::uint64_t new_r = a < p_ ? a : reduce(a);
  while (new_r != 0) {
    const std::uint64_t q = r / new_r;
    t -= static_cast<std::int64_t>(q) * new_t;
    std::swap(t, new_t);
    r -= q * new_r;
    std::swap(r, new_r);
  }
  CCMX_REQUIRE(r == 1, "inverse of a non-unit");
  return t < 0 ? static_cast<std::uint64_t>(t + static_cast<std::int64_t>(p_))
               : static_cast<std::uint64_t>(t);
}

std::uint64_t powmod(std::uint64_t base, std::uint64_t exp, std::uint64_t m) {
  CCMX_REQUIRE(m > 0, "zero modulus");
  if (m == 1) return 0;
  std::uint64_t result = 1;
  base %= m;
  while (exp != 0) {
    if (exp & 1u) result = mulmod(result, base, m);
    base = mulmod(base, base, m);
    exp >>= 1;
  }
  return result;
}

bool is_prime(std::uint64_t n) {
  if (n < 2) return false;
  for (const std::uint64_t p : {2u, 3u, 5u, 7u, 11u, 13u, 17u, 19u, 23u,
                                29u, 31u, 37u}) {
    if (n == p) return true;
    if (n % p == 0) return false;
  }
  std::uint64_t d = n - 1;
  unsigned r = 0;
  while ((d & 1u) == 0) {
    d >>= 1;
    ++r;
  }
  // This base set is deterministic for all n < 2^64 (Sinclair, 2011).
  for (const std::uint64_t a :
       {2ULL, 325ULL, 9375ULL, 28178ULL, 450775ULL, 9780504ULL,
        1795265022ULL}) {
    std::uint64_t x = powmod(a % n, d, n);
    if (x == 0 || x == 1 || x == n - 1) continue;
    bool witness = true;
    for (unsigned i = 1; i < r; ++i) {
      x = mulmod(x, x, n);
      if (x == n - 1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

std::uint64_t next_prime(std::uint64_t n) {
  CCMX_REQUIRE(n <= (std::uint64_t{1} << 63), "next_prime scan too large");
  if (n <= 2) return 2;
  std::uint64_t candidate = n | 1u;
  while (!is_prime(candidate)) candidate += 2;
  return candidate;
}

std::uint64_t random_prime(unsigned bits, ccmx::util::Xoshiro256& rng) {
  CCMX_REQUIRE(bits >= 2 && bits <= kZpBits,
               "random_prime bits out of range");
  const std::uint64_t lo = std::uint64_t{1} << (bits - 1);
  const std::uint64_t hi = (std::uint64_t{1} << bits) - 1;
  for (;;) {
    std::uint64_t candidate = lo + rng.below(hi - lo + 1);
    candidate |= 1u;
    if (candidate >= lo && candidate <= hi && is_prime(candidate)) {
      return candidate;
    }
  }
}

std::vector<std::uint64_t> primes_up_to(std::uint64_t limit) {
  std::vector<std::uint64_t> primes;
  if (limit < 2) return primes;
  std::vector<bool> composite(static_cast<std::size_t>(limit) + 1, false);
  for (std::uint64_t p = 2; p <= limit; ++p) {
    if (composite[static_cast<std::size_t>(p)]) continue;
    primes.push_back(p);
    for (std::uint64_t multiple = p * p; multiple <= limit; multiple += p) {
      composite[static_cast<std::size_t>(multiple)] = true;
    }
  }
  return primes;
}

std::optional<std::uint64_t> count_primes_with_bits(unsigned bits) {
  // pi(2^b - 1) - pi(2^{b-1} - 1) for b = 2..20 (tests recount them with
  // primes_up_to).
  static constexpr std::array<std::uint64_t, 19> kCounts = {
      2,   2,   2,   5,    7,    13,   23,    43,    75,   137,
      255, 464, 872, 1612, 3030, 5709, 10749, 20390, 38635};
  if (bits < 2 || bits > 20) return std::nullopt;
  return kCounts[bits - 2];
}

}  // namespace ccmx::num
