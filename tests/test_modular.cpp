// Machine-word modular arithmetic and primality.
#include <gtest/gtest.h>

#include <vector>

#include "bigint/bigint.hpp"
#include "bigint/modular.hpp"
#include "linalg/crt.hpp"

namespace {

using namespace ccmx::num;
using ccmx::util::u128;
using ccmx::util::Xoshiro256;

/// The moduli the field type is checked at: 2, 3, 5, 2^31 - 1, random 20-
/// and 40-bit primes, the first ladder rungs and the largest prime below
/// 2^62.
std::vector<std::uint64_t> field_primes() {
  Xoshiro256 rng(2024);
  std::vector<std::uint64_t> primes{2, 3, 5, (std::uint64_t{1} << 31) - 1,
                                    random_prime(20, rng),
                                    random_prime(40, rng)};
  std::uint64_t rung = 0;
  for (int i = 0; i < 3; ++i) {
    rung = ccmx::la::next_ladder_prime(rung);
    primes.push_back(rung);
  }
  std::uint64_t top = (std::uint64_t{1} << 62) - 1;
  while (!is_prime(top)) --top;
  primes.push_back(top);
  return primes;
}

/// Operands below p: 0, 1, p - 1 and random residues.
std::vector<std::uint64_t> residues(std::uint64_t p, Xoshiro256& rng) {
  std::vector<std::uint64_t> out{0, 1 % p, p - 1};
  for (int i = 0; i < 40; ++i) out.push_back(rng.below(p));
  return out;
}

/// Any words: the residues, p and p + 1, 2^64 - 1 and random words.
std::vector<std::uint64_t> words(std::uint64_t p, Xoshiro256& rng) {
  std::vector<std::uint64_t> out = residues(p, rng);
  out.insert(out.end(), {p, p + 1, ~std::uint64_t{0}});
  for (int i = 0; i < 40; ++i) out.push_back(rng());
  return out;
}

TEST(Zp, ConstructorRejectsModuliOutsideTheRange) {
  for (const std::uint64_t p :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{1} << 62,
        (std::uint64_t{1} << 62) + 135, ~std::uint64_t{0} - 58}) {
    EXPECT_THROW((void)Zp(p), ccmx::util::contract_error) << p;
  }
  EXPECT_EQ(Zp((std::uint64_t{1} << 62) - 1).p(),
            (std::uint64_t{1} << 62) - 1);
}

TEST(Zp, MatchesTheU128Reference) {
  Xoshiro256 rng(17);
  for (const std::uint64_t p : field_primes()) {
    const Zp field(p);
    const auto small = residues(p, rng);
    const auto any = words(p, rng);
    for (const std::uint64_t b : small) {
      const Zp::Fixed fixed = field.fixed(b);
      EXPECT_EQ(fixed.quotient,
                static_cast<std::uint64_t>((static_cast<u128>(b) << 64) / p));
      for (const std::uint64_t a : small) {
        EXPECT_EQ(field.add(a, b), static_cast<std::uint64_t>(
                                       (static_cast<u128>(a) + b) % p));
        EXPECT_EQ(field.sub(a, b), static_cast<std::uint64_t>(
                                       (static_cast<u128>(a) + p - b) % p));
      }
      for (const std::uint64_t a : any) {
        // The general and Shoup multiplies take any word on the left.
        EXPECT_EQ(field.mul(a, b), mulmod(a, b, p))
            << a << " " << b << " " << p;
        EXPECT_EQ(field.mul(a, fixed), mulmod(a, b, p))
            << a << " " << b << " " << p;
        EXPECT_EQ(field.horner(b, a),
                  static_cast<std::uint64_t>(
                      ((static_cast<u128>(b) << 64) | a) % p));
      }
      EXPECT_EQ(field.neg(b), (p - b) % p);
    }
    for (const std::uint64_t a : any) EXPECT_EQ(field.reduce(a), a % p);
  }
}

TEST(Zp, InverseOfEveryUnitSampled) {
  Xoshiro256 rng(18);
  for (const std::uint64_t p : field_primes()) {
    const Zp field(p);
    for (const std::uint64_t a : residues(p, rng)) {
      if (a == 0) continue;
      EXPECT_EQ(mulmod(a, field.inv(a), p), 1u) << a << " " << p;
    }
    EXPECT_THROW((void)field.inv(0), ccmx::util::contract_error);
  }
}

TEST(Zp, ReducesBigIntsLikeModFloor) {
  Xoshiro256 rng(19);
  for (const std::uint64_t p : field_primes()) {
    const Zp field(p);
    for (unsigned limbs = 1; limbs <= 4; ++limbs) {
      for (int trial = 0; trial < 20; ++trial) {
        BigInt v(0);
        for (unsigned i = 0; i < limbs; ++i) {
          const std::uint64_t w = rng();
          v = v * BigInt::pow2(64) +
              BigInt(static_cast<std::int64_t>(w >> 1)) * BigInt(2) +
              BigInt(static_cast<std::int64_t>(w & 1));
        }
        for (const BigInt& x :
             {v, -v, v + BigInt(static_cast<std::int64_t>(p)),
              -(v - BigInt(1))}) {
          EXPECT_EQ(field.reduce(x), x.mod_floor_u64(p)) << x.to_string();
        }
      }
    }
    EXPECT_EQ(field.reduce(BigInt(0)), 0u);
    EXPECT_EQ(field.reduce(BigInt(-1)), p - 1);
  }
}

TEST(Mulmod, NoOverflowNearWordSize) {
  const std::uint64_t m = 0xfffffffffffffff1ull;
  const std::uint64_t a = m - 1;
  EXPECT_EQ(mulmod(a, a, m), 1u);  // (-1)^2 = 1 mod m
  EXPECT_EQ(mulmod(0, a, m), 0u);
  EXPECT_EQ(mulmod(1, a, m), a);
}

TEST(Powmod, KnownValues) {
  EXPECT_EQ(powmod(2, 10, 1000), 24u);
  EXPECT_EQ(powmod(3, 0, 7), 1u);
  EXPECT_EQ(powmod(5, 117, 1), 0u);
  // Fermat: a^(p-1) = 1 mod p.
  const std::uint64_t p = 1000000007ull;
  EXPECT_EQ(powmod(123456, p - 1, p), 1u);
}

TEST(Invmod, RoundTrips) {
  const std::uint64_t p = 1000000007ull;
  const Zp field(p);
  for (std::uint64_t a : {1ull, 2ull, 999999999ull, 123456789ull}) {
    EXPECT_EQ(mulmod(a, field.inv(a), p), 1u) << a;
  }
  EXPECT_THROW((void)Zp(9).inv(6), ccmx::util::contract_error);
  EXPECT_THROW((void)field.inv(0), ccmx::util::contract_error);
}

TEST(IsPrime, SmallTable) {
  const bool expected[] = {false, false, true,  true,  false, true,
                           false, true,  false, false, false, true,
                           false, true,  false, false, false, true};
  for (std::uint64_t n = 0; n < std::size(expected); ++n) {
    EXPECT_EQ(is_prime(n), expected[n]) << n;
  }
}

TEST(IsPrime, MatchesSieve) {
  const auto primes = primes_up_to(10000);
  std::size_t idx = 0;
  for (std::uint64_t n = 2; n <= 10000; ++n) {
    const bool in_sieve = idx < primes.size() && primes[idx] == n;
    EXPECT_EQ(is_prime(n), in_sieve) << n;
    if (in_sieve) ++idx;
  }
  EXPECT_EQ(primes.size(), 1229u);  // pi(10^4)
}

TEST(IsPrime, LargeKnownValues) {
  EXPECT_TRUE(is_prime(2305843009213693951ull));   // 2^61 - 1 (Mersenne)
  EXPECT_FALSE(is_prime(2305843009213693953ull));
  EXPECT_TRUE(is_prime(18446744073709551557ull));  // largest 64-bit prime
  EXPECT_FALSE(is_prime(18446744073709551615ull));
  // Carmichael numbers must be rejected.
  EXPECT_FALSE(is_prime(561));
  EXPECT_FALSE(is_prime(1105));
  EXPECT_FALSE(is_prime(825265));
}

TEST(NextPrime, Steps) {
  EXPECT_EQ(next_prime(0), 2u);
  EXPECT_EQ(next_prime(2), 2u);
  EXPECT_EQ(next_prime(3), 3u);
  EXPECT_EQ(next_prime(4), 5u);
  EXPECT_EQ(next_prime(90), 97u);
  EXPECT_EQ(next_prime(1000000000), 1000000007u);
}

TEST(RandomPrime, InRangeAndPrime) {
  Xoshiro256 rng(99);
  for (unsigned bits : {3u, 8u, 16u, 31u, 62u}) {
    for (int trial = 0; trial < 20; ++trial) {
      const std::uint64_t p = random_prime(bits, rng);
      EXPECT_TRUE(is_prime(p)) << p;
      EXPECT_GE(p, std::uint64_t{1} << (bits - 1));
      EXPECT_LT(p, std::uint64_t{1} << bits);
    }
  }
}

TEST(CountPrimes, MatchesSieveCounts) {
  // Primes with exactly b bits = pi(2^b - 1) - pi(2^{b-1} - 1).
  const auto primes = primes_up_to(1 << 20);
  for (unsigned b = 2; b <= 20; ++b) {
    const auto count = count_primes_with_bits(b);
    ASSERT_TRUE(count.has_value());
    std::uint64_t expected = 0;
    for (const std::uint64_t p : primes) {
      if (p >= (std::uint64_t{1} << (b - 1)) && p < (std::uint64_t{1} << b)) {
        ++expected;
      }
    }
    EXPECT_EQ(*count, expected) << b;
  }
  EXPECT_EQ(count_primes_with_bits(20), std::uint64_t{38635});
  EXPECT_FALSE(count_primes_with_bits(1).has_value());
  EXPECT_FALSE(count_primes_with_bits(21).has_value());
}

}  // namespace
