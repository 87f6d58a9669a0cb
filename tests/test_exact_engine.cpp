// The modular exact-rank engine behind la::rank(IntMatrix), la::is_singular
// and core::solvable, checked against the oracles it replaced: Bareiss
// (det_bareiss == 0), rational Gauss-Jordan rank, and rational la::solve.
#include <gtest/gtest.h>

#include <vector>

#include "core/construction.hpp"
#include "core/reductions.hpp"
#include "linalg/crt.hpp"
#include "linalg/det.hpp"
#include "linalg/rref.hpp"
#include "obs/obs.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace {

using ccmx::la::IntMatrix;
using ccmx::num::BigInt;
using ccmx::num::Rational;
using ccmx::util::Xoshiro256;

IntMatrix random_box(std::size_t rows, std::size_t cols, std::int64_t mag,
                     Xoshiro256& rng) {
  return IntMatrix::generate(rows, cols, [&](std::size_t, std::size_t) {
    return BigInt(rng.range(-mag, mag));
  });
}

/// rows x cols with rank at most r: an L R product of random factors.
IntMatrix product_of_rank(std::size_t rows, std::size_t cols, std::size_t r,
                          Xoshiro256& rng) {
  if (r == 0) return IntMatrix(rows, cols);
  return random_box(rows, r, 2, rng) * random_box(r, cols, 2, rng);
}

/// D1 m D2 for diagonal D1, D2 of distinct factors 2^70 + r: same rank and
/// signs as m, with every nonzero entry at least three limbs wide.
IntMatrix multi_limb(const IntMatrix& m, Xoshiro256& rng) {
  const auto factor = [&] {
    return BigInt::pow2(70) + BigInt(rng.range(1, 1000));
  };
  std::vector<BigInt> row_factor(m.rows()), col_factor(m.cols());
  for (auto& f : row_factor) f = factor();
  for (auto& f : col_factor) f = factor();
  return IntMatrix::generate(m.rows(), m.cols(),
                             [&](std::size_t i, std::size_t j) {
                               return m(i, j) * row_factor[i] * col_factor[j];
                             });
}

/// Entries of about 80 bits, either sign.
IntMatrix random_wide(std::size_t rows, std::size_t cols, Xoshiro256& rng) {
  return IntMatrix::generate(rows, cols, [&](std::size_t, std::size_t) {
    const BigInt v = BigInt(static_cast<std::int64_t>(rng() >> 2)) *
                         BigInt::pow2(18) +
                     BigInt(rng.range(-9, 9));
    return rng.coin() ? v : -v;
  });
}

std::vector<Rational> to_rationals(const std::vector<BigInt>& v) {
  std::vector<Rational> out;
  out.reserve(v.size());
  for (const BigInt& x : v) out.emplace_back(x);
  return out;
}

/// Checks every entry point on m against its oracle, plus solvability for
/// a solvable, an arbitrary and a zero right-hand side.
void check_against_oracles(const IntMatrix& m, Xoshiro256& rng) {
  const auto rational = ccmx::la::to_rational(m);
  const std::size_t rank = ccmx::la::rank(m);
  ASSERT_EQ(rank, ccmx::la::rank(rational)) << m.to_string();
  if (m.is_square()) {
    ASSERT_EQ(ccmx::la::is_singular(m), ccmx::la::det_bareiss(m).is_zero())
        << m.to_string();
  }
  std::vector<BigInt> x(m.cols()), arbitrary(m.rows());
  for (auto& v : x) v = BigInt(rng.range(-3, 3));
  for (auto& v : arbitrary) v = BigInt(rng.range(-3, 3));
  for (const std::vector<BigInt>& b : {ccmx::la::multiply(m, x), arbitrary}) {
    ASSERT_EQ(ccmx::core::solvable(m, b),
              ccmx::la::solve(rational, to_rationals(b)).has_value())
        << m.to_string();
  }
  ASSERT_TRUE(
      ccmx::core::solvable(m, std::vector<BigInt>(m.rows(), BigInt(0))));
}

class ExactEngineSweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(ExactEngineSweep, ProductsOfEveryRankMatchOracles) {
  const auto [rows, cols] = GetParam();
  Xoshiro256 rng(rows * 100 + cols);
  for (std::size_t r = 0; r <= std::min(rows, cols); ++r) {
    SCOPED_TRACE(testing::Message() << rows << "x" << cols << " rank<=" << r);
    check_against_oracles(product_of_rank(rows, cols, r, rng), rng);
  }
}

TEST_P(ExactEngineSweep, DenseZeroLinesAndMultiLimbMatchOracles) {
  const auto [rows, cols] = GetParam();
  // The rational oracles slow down sharply with entry size: multi-limb
  // inputs stay at the smaller shapes.
  const bool wide_entries = rows * cols <= 100;
  Xoshiro256 rng(rows * 1000 + cols);
  for (int trial = 0; trial < 2; ++trial) {
    SCOPED_TRACE(testing::Message() << rows << "x" << cols << " #" << trial);
    IntMatrix m = random_box(rows, cols, 9, rng);  // negative entries too
    check_against_oracles(m, rng);
    // A zero row and a zero column.
    const std::size_t zr = rng.below(rows);
    const std::size_t zc = rng.below(cols);
    for (std::size_t j = 0; j < cols; ++j) m(zr, j) = BigInt(0);
    for (std::size_t i = 0; i < rows; ++i) m(i, zc) = BigInt(0);
    check_against_oracles(m, rng);
    // Singular by a repeated row.
    if (rows >= 2) {
      for (std::size_t j = 0; j < cols; ++j) m(rows - 1, j) = m(0, j);
      check_against_oracles(m, rng);
    }
    if (!wide_entries) continue;
    check_against_oracles(multi_limb(m, rng), rng);
    check_against_oracles(random_wide(rows, cols, rng), rng);
    check_against_oracles(
        multi_limb(product_of_rank(rows, cols, std::min(rows, cols) / 2, rng),
                   rng),
        rng);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ExactEngineSweep,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{2, 2},
                      std::pair<std::size_t, std::size_t>{5, 5},
                      std::pair<std::size_t, std::size_t>{8, 8},
                      std::pair<std::size_t, std::size_t>{13, 13},
                      std::pair<std::size_t, std::size_t>{24, 24},
                      std::pair<std::size_t, std::size_t>{1, 7},
                      std::pair<std::size_t, std::size_t>{7, 3},
                      std::pair<std::size_t, std::size_t>{9, 16},
                      std::pair<std::size_t, std::size_t>{24, 11}));

TEST(ExactEngine, EmptyAndZeroMatrices) {
  EXPECT_EQ(ccmx::la::rank(IntMatrix(0, 0)), 0u);
  EXPECT_EQ(ccmx::la::rank(IntMatrix(0, 5)), 0u);
  EXPECT_EQ(ccmx::la::rank(IntMatrix(4, 0)), 0u);
  EXPECT_FALSE(ccmx::la::is_singular(IntMatrix(0, 0)));  // det = 1
  EXPECT_TRUE(ccmx::la::is_singular(IntMatrix(6, 6)));
  EXPECT_TRUE(ccmx::core::solvable(IntMatrix(3, 0), std::vector<BigInt>(3)));
  EXPECT_FALSE(ccmx::core::solvable(
      IntMatrix(3, 0), {BigInt(0), BigInt(1), BigInt(0)}));
  EXPECT_THROW((void)ccmx::la::is_singular(IntMatrix(2, 3)),
               ccmx::util::contract_error);
}

TEST(ExactEngine, FirstLadderPrimeDividingDetIsNotSingular) {
  // diag(p1, 1, ..., 1): the first prime sees rank n - 1, the second full.
  const std::uint64_t p1 = ccmx::la::next_ladder_prime(0);
  IntMatrix m = IntMatrix::identity(5, BigInt(1));
  m(0, 0) = BigInt(static_cast<std::int64_t>(p1));
  EXPECT_FALSE(ccmx::la::is_singular(m));
  EXPECT_EQ(ccmx::la::rank(m), 5u);
  EXPECT_FALSE(ccmx::la::det_bareiss(m).is_zero());
}

TEST(ExactEngine, RankSurvivesTwoPrimesSeeingZero) {
  // [p1 p2]: rank 0 modulo the first two ladder primes, rank 1 over Q.
  const std::uint64_t p1 = ccmx::la::next_ladder_prime(0);
  const std::uint64_t p2 = ccmx::la::next_ladder_prime(p1);
  const IntMatrix m{{BigInt(static_cast<std::int64_t>(p1)) *
                     BigInt(static_cast<std::int64_t>(p2))}};
  EXPECT_EQ(ccmx::la::rank(m), 1u);
  EXPECT_FALSE(ccmx::la::is_singular(m));
  EXPECT_TRUE(ccmx::core::solvable(m, {BigInt(1)}));
}

TEST(ExactEngine, HardInstancesAndCorollary13PairsMatchOracles) {
  Xoshiro256 rng(31);
  for (const auto& [n, k] : std::vector<std::pair<std::size_t, unsigned>>{
           {7, 2}, {9, 2}}) {
    const ccmx::core::ConstructionParams p(n, k);
    int singular_seen = 0;
    for (int trial = 0; trial < 8; ++trial) {
      SCOPED_TRACE(testing::Message() << "(" << n << ", " << k << ") #"
                                      << trial);
      ccmx::core::FreeParts parts = ccmx::core::FreeParts::random(p, rng);
      if (trial % 2 == 0) {
        const auto done = ccmx::core::lemma35_complete(p, parts.c, parts.e);
        ASSERT_TRUE(done.has_value());
        parts = *done;
      }
      const IntMatrix m = ccmx::core::build_m(p, parts);
      const bool singular = ccmx::la::det_bareiss(m).is_zero();
      EXPECT_EQ(ccmx::la::is_singular(m), singular);
      EXPECT_EQ(ccmx::la::rank(m), ccmx::la::rank(ccmx::la::to_rational(m)));
      const auto pair = ccmx::core::corollary13_instance(m);
      const bool oracle =
          ccmx::la::solve(ccmx::la::to_rational(pair.m_prime),
                          to_rationals(pair.b))
              .has_value();
      EXPECT_EQ(ccmx::core::solvable(pair.m_prime, pair.b), oracle);
      EXPECT_EQ(oracle, singular);  // Corollary 1.3
      singular_seen += singular ? 1 : 0;
    }
    EXPECT_EQ(singular_seen, 4);  // every completion is singular
  }
}

/// Turns tracing on for one test and restores the prior state after.
class TracingOn {
 public:
  TracingOn() : was_(ccmx::obs::enabled()) {
    ccmx::obs::set_enabled(true);
    ccmx::obs::reset_values();
  }
  ~TracingOn() {
    ccmx::obs::reset_values();
    ccmx::obs::set_enabled(was_);
  }
  TracingOn(const TracingOn&) = delete;
  TracingOn& operator=(const TracingOn&) = delete;

 private:
  bool was_;
};

TEST(ExactEngineCounters, FullRankUsesOnePrimeAndDeficientIsBounded) {
#ifdef CCMX_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out (CCMX_OBS=OFF)";
#else
  const TracingOn guard;
  const ccmx::obs::Counter calls("linalg.exact.calls");
  const ccmx::obs::Counter primes("linalg.exact.primes");
  const ccmx::obs::Counter bounded("linalg.exact.bounded");
  Xoshiro256 rng(5);
  IntMatrix m = random_box(12, 12, 1000, rng);
  while (ccmx::la::det_bareiss(m).is_zero()) m = random_box(12, 12, 1000, rng);
  EXPECT_FALSE(ccmx::la::is_singular(m));
  EXPECT_EQ(calls.value(), 1u);
  EXPECT_EQ(primes.value(), 1u);
  EXPECT_EQ(bounded.value(), 0u);

  // diag(p1, 1, ...): one prime short of full rank, the second settles it.
  const std::uint64_t p1 = ccmx::la::next_ladder_prime(0);
  IntMatrix ladder = IntMatrix::identity(4, BigInt(1));
  ladder(0, 0) = BigInt(static_cast<std::int64_t>(p1));
  EXPECT_EQ(ccmx::la::rank(ladder), 4u);
  EXPECT_EQ(calls.value(), 2u);
  EXPECT_EQ(primes.value(), 3u);
  EXPECT_EQ(bounded.value(), 0u);

  // A zero column: deficient, settled by the stop rule after one prime.
  for (std::size_t i = 0; i < 12; ++i) m(i, 3) = BigInt(0);
  EXPECT_TRUE(ccmx::la::is_singular(m));
  EXPECT_EQ(calls.value(), 3u);
  EXPECT_EQ(primes.value(), 4u);
  EXPECT_EQ(bounded.value(), 1u);

  // Rank 2 of 12: the Hadamard bound on 3-minors needs more than one prime.
  const IntMatrix low = ccmx::la::map_matrix<BigInt>(
      product_of_rank(12, 12, 2, rng),
      [](const BigInt& v) { return v * BigInt::pow2(40); });
  EXPECT_EQ(ccmx::la::rank(low), 2u);
  EXPECT_EQ(calls.value(), 4u);
  EXPECT_GT(primes.value(), 5u);
  EXPECT_EQ(bounded.value(), 2u);
#endif
}

}  // namespace
