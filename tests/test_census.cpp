// Census engines: the shift model's interval count against brute force on
// both integer types, the exact row census against Lemma 3.5's bounds,
// Lemma 3.4 exhaustively.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bigint/negabase.hpp"
#include "core/census.hpp"
#include "core/census_model.hpp"
#include "util/int128.hpp"
#include "util/parallel.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace {

using namespace ccmx::core;
using ccmx::la::IntMatrix;
using ccmx::num::BigInt;
using ccmx::util::i128;
using ccmx::util::Xoshiro256;

TEST(Totals, MatchClosedForms) {
  const ConstructionParams p(7, 2);  // q = 3
  EXPECT_EQ(total_rows(p), BigInt::pow(BigInt(3), 9));     // q^{(n-1)^2/4}
  EXPECT_EQ(total_columns(p), BigInt::pow(BigInt(3), 24)); // q^{(n^2-1)/2}
}

/// The digit vector row_census sweeps for a column's (E, D): E row-major,
/// then D rows 1..half-1.
std::vector<std::uint32_t> digit_vector(const ConstructionParams& p,
                                        const FreeParts& parts) {
  std::vector<std::uint32_t> dv;
  for (std::size_t r = 0; r < p.half(); ++r) {
    for (std::size_t t = 0; t < p.l(); ++t) {
      dv.push_back(static_cast<std::uint32_t>(parts.e(r, t).to_int64()));
    }
  }
  for (std::size_t idx = 1; idx < p.half(); ++idx) {
    for (std::size_t j = 0; j < p.g(); ++j) {
      dv.push_back(static_cast<std::uint32_t>(parts.d(idx, j).to_int64()));
    }
  }
  return dv;
}

/// Brute force over the q^G choices of row D_0: how many give a forced x_1
/// with an (n-1)-digit base-(-q) expansion, i.e. a y completing the column.
BigInt brute_d0_count(const ConstructionParams& p, FreeParts parts) {
  std::uint64_t rows = 1;
  for (std::size_t j = 0; j < p.g(); ++j) rows *= p.q();
  std::int64_t hits = 0;
  for (std::uint64_t d0 = 0; d0 < rows; ++d0) {
    std::uint64_t rest = d0;
    for (std::size_t j = 0; j < p.g(); ++j) {
      parts.d(0, j) = BigInt(static_cast<std::int64_t>(rest % p.q()));
      rest /= p.q();
    }
    const BigInt x1 = forced_x1(p, parts.c, parts.d, parts.e);
    if (ccmx::num::to_negabase(x1, p.q(), p.n() - 1).has_value()) ++hits;
  }
  return BigInt(hits);
}

/// Chain values at (7, 2) are far inside int64.
BigInt to_big(i128 v) {
  EXPECT_TRUE(v >= INT64_MIN && v <= INT64_MAX);
  return BigInt(static_cast<std::int64_t>(v));
}

TEST(RowCensus, InnerIntervalCountMatchesBruteForce) {
  // count(chain(dv)) is the census's inner count for one (C, E, D_1..):
  // it must equal the brute-force count over the 81 D_0 rows.  Odd trials
  // take D and y from Lemma 3.5(a)'s completion, so at least one D_0 row
  // works.  chain must equal the linear form dot, step must move dot by
  // one digit, and the i128 and BigInt models must agree on all of it.
  const ConstructionParams p(7, 2);  // q = 3, G = 4
  Xoshiro256 rng(1);
  for (int trial = 0; trial < 24; ++trial) {
    FreeParts parts = FreeParts::random(p, rng);
    if (trial % 2 == 1) {
      const std::optional<FreeParts> done =
          lemma35_complete(p, parts.c, parts.e);
      ASSERT_TRUE(done.has_value());
      parts = *done;
    }
    const ShiftModel<i128> fast(p, parts.c);
    const ShiftModel<BigInt> big(p, parts.c);
    std::vector<std::uint32_t> dv = digit_vector(p, parts);
    ASSERT_EQ(dv.size(), fast.digits());
    std::vector<i128> x_fast(p.n() - 1);
    std::vector<BigInt> x_big(p.n() - 1);
    const BigInt shift = big.chain(dv, x_big);
    EXPECT_EQ(to_big(fast.chain(dv, x_fast)), shift);
    EXPECT_EQ(big.dot(dv), shift);
    EXPECT_EQ(to_big(fast.dot(dv)), shift);
    const BigInt brute = brute_d0_count(p, parts);
    EXPECT_EQ(big.count(shift), brute) << "trial " << trial;
    EXPECT_EQ(to_big(fast.count(fast.dot(dv))), brute) << "trial " << trial;
    if (trial % 2 == 1) {
      EXPECT_GE(brute, BigInt(1)) << "trial " << trial;
    }

    const std::size_t pos = static_cast<std::size_t>(trial) % dv.size();
    const std::uint32_t old_d = dv[pos];
    i128 moved_fast = fast.dot(dv);
    BigInt moved_big = shift;
    dv[pos] = (old_d + 1) % static_cast<std::uint32_t>(p.q());
    fast.step(moved_fast, pos, old_d, dv[pos]);
    big.step(moved_big, pos, old_d, dv[pos]);
    EXPECT_EQ(moved_big, big.dot(dv));
    EXPECT_EQ(to_big(moved_fast), moved_big);
  }
}

TEST(RowCensus, BothIntegerTypesGiveIdenticalCensuses) {
  // row_census runs count_row<i128> at every size a caller uses; the
  // BigInt instantiation must count the same exhaustive row in both sweep
  // modes, and draw the same sampled estimate.
  const ConstructionParams p(7, 2);
  Xoshiro256 seed_rng(19);
  const FreeParts parts = FreeParts::random(p, seed_rng);
  CensusOptions options;
  options.budget = std::uint64_t{1} << 30;
  options.samples = 2000;
  for (const bool delta : {true, false}) {
    options.delta = delta;
    Xoshiro256 rng_a(20);
    Xoshiro256 rng_b(20);
    const RowCensus a = count_row<i128>(p, parts.c, options, rng_a);
    const RowCensus b = count_row<BigInt>(p, parts.c, options, rng_b);
    EXPECT_TRUE(a.exact);
    EXPECT_TRUE(b.exact);
    EXPECT_EQ(a.ones, b.ones) << "delta " << delta;
    EXPECT_EQ(a.evaluations, b.evaluations) << "delta " << delta;
  }
  options.budget = 1000;
  Xoshiro256 rng_a(21);
  Xoshiro256 rng_b(21);
  const RowCensus a = count_row<i128>(p, parts.c, options, rng_a);
  const RowCensus b = count_row<BigInt>(p, parts.c, options, rng_b);
  EXPECT_FALSE(a.exact);
  EXPECT_EQ(a.ones, b.ones);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(RowCensus, ExactAgainstFullBruteForce) {
  // An independent cross-check of the whole exact census: the fraction of
  // singular columns among 2e5 uniform (D, E, y) draws, each decided by
  // restricted_singular, must match ones / columns.
  const ConstructionParams p(7, 2);
  Xoshiro256 rng(2);
  const FreeParts parts = FreeParts::random(p, rng);
  const RowCensus exact = row_census(p, parts.c, /*budget=*/std::uint64_t{1}
                                                     << 30,
                                     /*samples=*/0, rng);
  ASSERT_TRUE(exact.exact);
  std::size_t hits = 0;
  const std::size_t trials = 200000;
  Xoshiro256 mc(3);
  FreeParts probe = parts;
  for (std::size_t t = 0; t < trials; ++t) {
    const FreeParts draw = FreeParts::random(p, mc);
    probe.d = draw.d;
    probe.e = draw.e;
    probe.y = draw.y;
    if (restricted_singular(p, probe)) ++hits;
  }
  const double mc_fraction = static_cast<double>(hits) / trials;
  const double exact_fraction =
      exact.ones.to_double() / exact.columns.to_double();
  // ~3^16/3^24 = 1.5e-4: with 2e5 trials expect ~30 hits, sigma ~5.5.
  EXPECT_NEAR(mc_fraction, exact_fraction, exact_fraction * 0.6 + 1e-5);
}

TEST(RowCensus, BudgetEqualToTheSpaceIsExact) {
  // q^digits <= budget is decided in integers: 3^14 at (7, 2).
  const ConstructionParams p(7, 2);
  Xoshiro256 rng(22);
  const FreeParts parts = FreeParts::random(p, rng);
  EXPECT_TRUE(row_census(p, parts.c, 4782969, 0, rng).exact);
  EXPECT_FALSE(row_census(p, parts.c, 4782968, 100, rng).exact);
}

TEST(RowCensus, WithinLemma35Bounds) {
  const ConstructionParams p(7, 2);
  Xoshiro256 rng(4);
  const Lemma35Bounds bounds = lemma35_bounds(p);
  for (int trial = 0; trial < 3; ++trial) {
    const FreeParts parts = FreeParts::random(p, rng);
    const RowCensus census =
        row_census(p, parts.c, std::uint64_t{1} << 30, 0, rng);
    ASSERT_TRUE(census.exact);
    EXPECT_GT(census.ones, BigInt(0));
    // Lower bound: at least one singular column per E instance (Lemma
    // 3.5(a)) => ones >= q^{half * L}.
    EXPECT_GE(census.ones,
              BigInt::pow(BigInt(static_cast<std::int64_t>(p.q())),
                          static_cast<unsigned>(p.half() * p.l())));
    // Upper bound: ones <= q^{n^2/2} (the paper's cap).
    EXPECT_LE(census.log_q_ones, bounds.upper_exponent);
    EXPECT_LE(census.ones, census.columns);
  }
}

TEST(RowCensus, SampledModeTracksExact) {
  const ConstructionParams p(7, 2);
  Xoshiro256 rng(5);
  const FreeParts parts = FreeParts::random(p, rng);
  const RowCensus exact =
      row_census(p, parts.c, std::uint64_t{1} << 30, 0, rng);
  Xoshiro256 rng2(6);
  const RowCensus sampled = row_census(p, parts.c, /*budget=*/1000,
                                       /*samples=*/20000, rng2);
  EXPECT_FALSE(sampled.exact);
  EXPECT_NEAR(sampled.log_q_ones, exact.log_q_ones, 0.5);
}

TEST(RowCensus, DefaultOptionsNeedSamplesOnTheSampledBranch) {
  // Default CensusOptions (budget 1, samples 0) take the sampled branch,
  // which must refuse to run with no samples instead of dividing by 0.
  const ConstructionParams p(7, 2);
  Xoshiro256 rng(5);
  const FreeParts parts = FreeParts::random(p, rng);
  try {
    (void)row_census(p, parts.c, CensusOptions{}, rng);
    ADD_FAILURE() << "default CensusOptions ran a sampled census";
  } catch (const ccmx::util::contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("row_census"), std::string::npos)
        << e.what();
  }
  // The exact branch never reads samples, so 0 stays legitimate there.
  CensusOptions exact_only;
  exact_only.budget = std::uint64_t{1} << 30;
  EXPECT_TRUE(row_census(p, parts.c, exact_only, rng).exact);
}

TEST(RowCensus, ExactIsIdenticalAcrossParallelDegrees) {
  // The exact sweep folds per-worker integer accumulators, so ones and the
  // evaluations counter must be bit-for-bit identical for every degree.
  const ConstructionParams p(7, 2);
  Xoshiro256 seed_rng(11);
  const FreeParts parts = FreeParts::random(p, seed_rng);
  const std::size_t degrees[] = {1, 2, 0};  // serial, forced 2, hardware
  RowCensus results[3];
  for (int i = 0; i < 3; ++i) {
    ccmx::util::set_parallelism(degrees[i]);
    Xoshiro256 rng(12);
    results[i] = row_census(p, parts.c, std::uint64_t{1} << 30, 0, rng);
  }
  ccmx::util::set_parallelism(0);
  // The sweep covers every (E, D_1..) assignment exactly once: q^digits.
  std::uint64_t space = 1;
  const std::size_t digits = p.half() * p.l() + (p.half() - 1) * p.g();
  for (std::size_t d = 0; d < digits; ++d) space *= p.q();
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(results[i].exact);
    EXPECT_EQ(results[i].ones, results[0].ones);
    EXPECT_EQ(results[i].evaluations, space);
  }
}

TEST(RowCensus, SampledIsIdenticalAcrossParallelDegrees) {
  // Sample s derives its own generator from one base draw, so the estimate
  // does not depend on which worker ran which sample.
  const ConstructionParams p(7, 2);
  Xoshiro256 seed_rng(13);
  const FreeParts parts = FreeParts::random(p, seed_rng);
  const std::size_t degrees[] = {1, 2, 0};
  RowCensus results[3];
  for (int i = 0; i < 3; ++i) {
    ccmx::util::set_parallelism(degrees[i]);
    Xoshiro256 rng(14);
    results[i] = row_census(p, parts.c, /*budget=*/1000, /*samples=*/5000, rng);
  }
  ccmx::util::set_parallelism(0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(results[i].exact);
    EXPECT_EQ(results[i].ones, results[0].ones);
    EXPECT_EQ(results[i].evaluations, 5000u);
  }
}

TEST(RowCensus, DeltaAndRecomputeEnginesAgree) {
  // The incremental (delta) evaluator and the full-chain recompute are the
  // same linear functional; their censuses must match exactly.
  const ConstructionParams p(7, 2);
  Xoshiro256 seed_rng(15);
  const FreeParts parts = FreeParts::random(p, seed_rng);
  CensusOptions with_delta;
  with_delta.budget = std::uint64_t{1} << 30;
  CensusOptions recompute = with_delta;
  recompute.delta = false;
  Xoshiro256 rng_a(16);
  Xoshiro256 rng_b(16);
  const RowCensus a = row_census(p, parts.c, with_delta, rng_a);
  const RowCensus b = row_census(p, parts.c, recompute, rng_b);
  EXPECT_EQ(a.ones, b.ones);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_TRUE(a.exact);
  EXPECT_TRUE(b.exact);
}

TEST(Lemma34Census, IdenticalAcrossParallelDegrees) {
  const ConstructionParams p(7, 2);
  const ConstructionParams p_large(9, 3);
  const std::size_t degrees[] = {1, 2, 0};
  SpanCensus exhaustive[3];
  SpanCensus sampled[3];
  for (int i = 0; i < 3; ++i) {
    ccmx::util::set_parallelism(degrees[i]);
    Xoshiro256 rng(17);
    exhaustive[i] = lemma34_census(p, 20000, rng);
    Xoshiro256 rng_large(18);
    sampled[i] = lemma34_census(p_large, 60, rng_large);
  }
  ccmx::util::set_parallelism(0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(exhaustive[i].exhaustive);
    EXPECT_EQ(exhaustive[i].tested, exhaustive[0].tested);
    EXPECT_EQ(exhaustive[i].distinct, exhaustive[0].distinct);
    EXPECT_FALSE(sampled[i].exhaustive);
    EXPECT_EQ(sampled[i].tested, sampled[0].tested);
    EXPECT_EQ(sampled[i].distinct, sampled[0].distinct);
  }
}

TEST(Lemma34Census, ExhaustiveAtSmallestParams) {
  // q = 3, C is 3x3: all 19683 C instances give 19683 distinct spans.
  const ConstructionParams p(7, 2);
  Xoshiro256 rng(7);
  const SpanCensus census = lemma34_census(p, 20000, rng);
  EXPECT_TRUE(census.exhaustive);
  EXPECT_EQ(census.tested, 19683u);
  EXPECT_EQ(census.distinct, 19683u);
}

TEST(Lemma34Census, SampledAtLargerParams) {
  const ConstructionParams p(9, 3);  // 7^16 C instances: sampled
  Xoshiro256 rng(8);
  const SpanCensus census = lemma34_census(p, 150, rng);
  EXPECT_FALSE(census.exhaustive);
  EXPECT_EQ(census.distinct, census.tested);  // still all distinct
}

TEST(SpanIntersection, ProfileIsNonIncreasing) {
  const ConstructionParams p(7, 2);
  Xoshiro256 rng(9);
  const auto dims = span_intersection_profile(p, 6, rng);
  ASSERT_EQ(dims.size(), 6u);
  EXPECT_EQ(dims[0], p.n() - 1);  // a single span has dimension n - 1
  for (std::size_t i = 1; i < dims.size(); ++i) {
    EXPECT_LE(dims[i], dims[i - 1]);
  }
  // The first half(n-1) columns of A are shared by every span, so the
  // intersection always contains them.
  EXPECT_GE(dims.back(), p.half());
}

}  // namespace
