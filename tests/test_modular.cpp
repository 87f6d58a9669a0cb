// Machine-word modular arithmetic and primality.
#include <gtest/gtest.h>

#include "bigint/modular.hpp"

namespace {

using namespace ccmx::num;
using ccmx::util::Xoshiro256;

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
  for (std::uint64_t a : {1ull, 2ull, 999999999ull, 123456789ull}) {
    EXPECT_EQ(mulmod(a, invmod(a, p), p), 1u) << a;
  }
  EXPECT_THROW((void)invmod(6, 9), ccmx::util::contract_error);
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
