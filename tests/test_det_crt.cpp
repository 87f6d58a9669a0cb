// The prime ladder and CRT fold, the CRT determinant vs Bareiss, and the
// Strassen product vs naive.
#include <gtest/gtest.h>

#include "bigint/modular.hpp"
#include "linalg/crt.hpp"
#include "linalg/det.hpp"
#include "linalg/det_crt.hpp"
#include "linalg/strassen.hpp"
#include "util/rng.hpp"

namespace {

using ccmx::la::IntMatrix;
using ccmx::num::BigInt;
using ccmx::util::Xoshiro256;

IntMatrix random_matrix(std::size_t n, Xoshiro256& rng, unsigned bits) {
  return IntMatrix::generate(n, n, [&](std::size_t, std::size_t) {
    BigInt v(static_cast<std::int64_t>(
        rng.below((std::uint64_t{1} << bits))));
    return rng.coin() ? v : -v;
  });
}

class DetCrtSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned>> {};

TEST_P(DetCrtSweep, MatchesBareiss) {
  const auto [n, bits] = GetParam();
  Xoshiro256 rng(n * 1000 + bits);
  for (int trial = 0; trial < 8; ++trial) {
    IntMatrix m = random_matrix(n, rng, bits);
    if (trial % 4 == 0 && n >= 2) {
      for (std::size_t i = 0; i < n; ++i) m(i, n - 1) = m(i, 0);  // det = 0
    }
    EXPECT_EQ(ccmx::la::det_crt(m), ccmx::la::det_bareiss(m))
        << "n=" << n << " bits=" << bits;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, DetCrtSweep,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4}, std::size_t{7},
                                         std::size_t{10}),
                       ::testing::Values(3u, 16u, 48u)));

TEST(DetCrt, EdgeCases) {
  EXPECT_EQ(ccmx::la::det_crt(IntMatrix(0, 0)), BigInt(1));
  EXPECT_EQ(ccmx::la::det_crt(IntMatrix{{BigInt(-5)}}), BigInt(-5));
  EXPECT_EQ(ccmx::la::det_crt(IntMatrix(3, 3)), BigInt(0));
  EXPECT_EQ(ccmx::la::det_crt(IntMatrix::identity(6, BigInt(1))), BigInt(1));
}

TEST(DetCrt, PrimeCountScalesWithSizeAndWidth) {
  Xoshiro256 rng(9);
  const IntMatrix small = random_matrix(4, rng, 4);
  const IntMatrix wide = random_matrix(4, rng, 48);
  const IntMatrix big = random_matrix(12, rng, 48);
  EXPECT_LE(ccmx::la::det_crt_prime_count(small),
            ccmx::la::det_crt_prime_count(wide));
  EXPECT_LT(ccmx::la::det_crt_prime_count(wide),
            ccmx::la::det_crt_prime_count(big));
}

TEST(PrimeLadder, ConsecutivePrimesAbove2To61) {
  // Past the cached first rungs too: every prime above 2^61, in order.
  std::uint64_t p = 0;
  std::uint64_t expected = std::uint64_t{1} << 61;
  for (int rung = 0; rung < 80; ++rung) {
    expected = ccmx::num::next_prime(expected + 1);
    p = ccmx::la::next_ladder_prime(p);
    EXPECT_EQ(p, expected) << "rung " << rung;
  }
  EXPECT_LT(p, std::uint64_t{1} << 62);
}

TEST(CrtFold, RecoversSignedValuesAcrossPrimes) {
  for (const BigInt& x :
       {BigInt(0), BigInt(-1), BigInt(7), BigInt::pow2(150) - BigInt(3),
        -(BigInt::pow2(170) + BigInt(12345))}) {
    ccmx::la::CrtFold fold;
    std::uint64_t p = 0;
    for (int i = 0; i < 4; ++i) {  // modulus > 2^244 > 2 |x|
      p = ccmx::la::next_ladder_prime(p);
      fold.add(x.mod_floor_u64(p), p);
    }
    EXPECT_EQ(fold.symmetric(), x);
    EXPECT_EQ(fold.value(), BigInt::mod_floor(x, fold.modulus()));
  }
}

TEST(DetCrt, MultiLimbEntriesMatchBareiss) {
  // Entries near 2^110: the prime count must follow the real entry width.
  Xoshiro256 rng(12);
  for (int trial = 0; trial < 6; ++trial) {
    const IntMatrix m = IntMatrix::generate(4, 4, [&](std::size_t,
                                                      std::size_t) {
      return BigInt(rng.range(-1000, 1000)) * BigInt::pow2(100) +
             BigInt(rng.range(-9, 9));
    });
    EXPECT_EQ(ccmx::la::det_crt(m), ccmx::la::det_bareiss(m));
  }
}

TEST(DetCrt, NegativeDeterminantSign) {
  const IntMatrix m{{BigInt(0), BigInt(1)}, {BigInt(1), BigInt(0)}};
  EXPECT_EQ(ccmx::la::det_crt(m), BigInt(-1));
}

class StrassenSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StrassenSweep, MatchesNaive) {
  const std::size_t n = GetParam();
  Xoshiro256 rng(n * 7);
  const IntMatrix a = random_matrix(n, rng, 8);
  const IntMatrix b = random_matrix(n, rng, 8);
  EXPECT_EQ(ccmx::la::multiply_strassen(a, b, 4), multiply_naive(a, b));
}

INSTANTIATE_TEST_SUITE_P(Sizes, StrassenSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 16u, 20u));

TEST(Strassen, CutoffOneStillExact) {
  Xoshiro256 rng(3);
  const IntMatrix a = random_matrix(6, rng, 5);
  const IntMatrix b = random_matrix(6, rng, 5);
  EXPECT_EQ(ccmx::la::multiply_strassen(a, b, 1), multiply_naive(a, b));
}

TEST(Strassen, EmptyAndIdentity) {
  EXPECT_EQ(ccmx::la::multiply_strassen(IntMatrix(0, 0), IntMatrix(0, 0)),
            IntMatrix(0, 0));
  const IntMatrix id = IntMatrix::identity(9, BigInt(1));
  Xoshiro256 rng(4);
  const IntMatrix a = random_matrix(9, rng, 6);
  EXPECT_EQ(ccmx::la::multiply_strassen(a, id), a);
}

}  // namespace
