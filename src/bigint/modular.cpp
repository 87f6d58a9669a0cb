#include "bigint/modular.hpp"

#include <array>

#include "bigint/bigint.hpp"
#include "util/require.hpp"

namespace ccmx::num {

// CRT callers hand BigInt::mod_u64 residues straight into these routines, so
// the modulus word must be exactly one BigInt limb wide — if the limb width
// ever changes, the residue plumbing has to be revisited together with it.
static_assert(BigInt::kLimbBits == 8 * sizeof(std::uint64_t),
              "modular arithmetic assumes one-limb (64-bit) residues");

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

std::uint64_t invmod(std::uint64_t a, std::uint64_t m) {
  CCMX_REQUIRE(m > 1, "invmod needs modulus > 1");
  // Extended Euclid over signed 128-bit accumulators.
  using ccmx::util::i128;
  i128 t = 0, new_t = 1;
  i128 r = m, new_r = a % m;
  while (new_r != 0) {
    const i128 q = r / new_r;
    t -= q * new_t;
    std::swap(t, new_t);
    r -= q * new_r;
    std::swap(r, new_r);
  }
  CCMX_REQUIRE(r == 1, "invmod of a non-unit");
  if (t < 0) t += m;
  return static_cast<std::uint64_t>(t);
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
  CCMX_REQUIRE(bits >= 2 && bits <= 62, "random_prime bits out of range");
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
