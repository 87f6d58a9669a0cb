// Extended gcd, modular inverses and rational reconstruction
// (linalg/lift.hpp), the number theory under the exact engine's lifting.
#include <gtest/gtest.h>

#include "linalg/lift.hpp"
#include "util/rng.hpp"

namespace {

using ccmx::num::BigInt;
using ccmx::num::Rational;
using ccmx::util::Xoshiro256;

TEST(ExtGcd, BezoutIdentityHolds) {
  Xoshiro256 rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    const BigInt a(rng.range(-1000000, 1000000));
    const BigInt b(rng.range(-1000000, 1000000));
    const auto e = BigInt::gcd_ext(a, b);
    EXPECT_EQ(a * e.x + b * e.y, e.g);
    EXPECT_EQ(e.g, BigInt::gcd(a, b));
  }
  const auto zero = BigInt::gcd_ext(BigInt(0), BigInt(0));
  EXPECT_TRUE(zero.g.is_zero());
}

TEST(ExtGcd, LargeOperands) {
  const BigInt a = BigInt::pow(BigInt(10), 40) + BigInt(7);
  const BigInt b = BigInt::pow(BigInt(3), 50) + BigInt(1);
  const auto e = BigInt::gcd_ext(a, b);
  EXPECT_EQ(a * e.x + b * e.y, e.g);
}

TEST(ModInverse, RoundTrips) {
  const BigInt m = BigInt::from_string("1000000000000000003");  // prime
  Xoshiro256 rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    BigInt a(rng.range(1, 1000000000));
    const BigInt inv = BigInt::mod_inverse(a, m);
    EXPECT_EQ(BigInt::mod_floor(a * inv, m), BigInt(1));
    EXPECT_GE(inv, BigInt(0));
    EXPECT_LT(inv, m);
  }
  EXPECT_THROW((void)BigInt::mod_inverse(BigInt(6), BigInt(9)),
               ccmx::util::contract_error);
}

TEST(RationalReconstruct, RecoversPlantedFractions) {
  // Plant p/q, compute p * q^{-1} mod m, recover.
  const BigInt m = BigInt::pow(BigInt(2), 127) - BigInt(1);  // prime
  const BigInt bound = BigInt::pow2(60);
  Xoshiro256 rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    BigInt p(rng.range(-1000000000, 1000000000));
    BigInt q(rng.range(1, 1000000000));
    const BigInt g = BigInt::gcd(p, q);
    if (!g.is_zero() && g != BigInt(1)) {
      p = p.divide_exact(g);
      q = q.divide_exact(g);
    }
    const BigInt residue =
        BigInt::mod_floor(p * BigInt::mod_inverse(q, m), m);
    const auto recovered = ccmx::la::rational_reconstruct(residue, m, bound);
    ASSERT_TRUE(recovered.has_value()) << trial;
    EXPECT_EQ(*recovered, Rational(p, q)) << trial;
  }
}

TEST(RationalReconstruct, FailsWhenBoundTooSmall) {
  const BigInt m(10007);
  // 5000 is not representable with num/den <= 3 mod 10007.
  const auto r = ccmx::la::rational_reconstruct(BigInt(5000), m, BigInt(3));
  EXPECT_FALSE(r.has_value());
  // Integers reconstruct as themselves.
  const auto i = ccmx::la::rational_reconstruct(BigInt(42), m, BigInt(100));
  ASSERT_TRUE(i.has_value());
  EXPECT_EQ(*i, Rational(42));
}

}  // namespace
