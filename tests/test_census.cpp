// Census engines: the shift model's interval count against brute force on
// all three integer types, the int64 model at its gate's edge, the shift
// histogram against the recompute sweep, the sampled census against an
// independent rebuild, the exact row census against Lemma 3.5's bounds,
// Lemma 3.4 exhaustively and its integer span keys against the rational
// RREF.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bigint/negabase.hpp"
#include "core/census.hpp"
#include "core/census_model.hpp"
#include "linalg/rref.hpp"
#include "obs/obs.hpp"
#include "util/divisor.hpp"
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
  // works.  chain must equal the linear form dot, and the int64, i128 and
  // BigInt models must agree on all of it.
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
    const ShiftModel<std::int64_t> word(p, parts.c);
    const ShiftModel<i128> fast(p, parts.c);
    const ShiftModel<BigInt> big(p, parts.c);
    std::vector<std::uint32_t> dv = digit_vector(p, parts);
    ASSERT_EQ(dv.size(), fast.digits());
    std::vector<std::int64_t> x_word(p.n() - 1);
    std::vector<i128> x_fast(p.n() - 1);
    std::vector<BigInt> x_big(p.n() - 1);
    const BigInt shift = big.chain(dv, x_big);
    EXPECT_EQ(BigInt(word.chain(dv, x_word)), shift);
    EXPECT_EQ(to_big(fast.chain(dv, x_fast)), shift);
    EXPECT_EQ(big.dot(dv), shift);
    EXPECT_EQ(BigInt(word.dot(dv)), shift);
    EXPECT_EQ(to_big(fast.dot(dv)), shift);
    const BigInt brute = brute_d0_count(p, parts);
    EXPECT_EQ(big.count(shift), brute) << "trial " << trial;
    EXPECT_EQ(BigInt(word.count(word.dot(dv))), brute) << "trial " << trial;
    EXPECT_EQ(to_big(fast.count(fast.dot(dv))), brute) << "trial " << trial;
    if (trial % 2 == 1) {
      EXPECT_GE(brute, BigInt(1)) << "trial " << trial;
    }
  }
}

TEST(RowCensus, BothIntegerTypesGiveIdenticalCensuses) {
  // row_census runs count_row<std::int64_t> at (7, 2); the i128 and BigInt
  // instantiations must count the same exhaustive row by the histogram and
  // by the recompute sweep, and draw the same sampled estimate.
  const ConstructionParams p(7, 2);
  Xoshiro256 seed_rng(19);
  const FreeParts parts = FreeParts::random(p, seed_rng);
  CensusOptions options;
  options.budget = std::uint64_t{1} << 30;
  options.samples = 2000;
  std::vector<RowCensus> exact;
  for (const bool delta : {true, false}) {
    options.delta = delta;
    Xoshiro256 rng_w(20);
    Xoshiro256 rng_a(20);
    Xoshiro256 rng_b(20);
    exact.push_back(count_row<std::int64_t>(p, parts.c, options, rng_w));
    exact.push_back(count_row<i128>(p, parts.c, options, rng_a));
    exact.push_back(count_row<BigInt>(p, parts.c, options, rng_b));
  }
  for (const RowCensus& census : exact) {
    EXPECT_TRUE(census.exact);
    EXPECT_EQ(census.ones, exact[0].ones);
    EXPECT_EQ(census.evaluations, exact[0].evaluations);
  }
  options.budget = 1000;
  Xoshiro256 rng_w(21);
  Xoshiro256 rng_a(21);
  Xoshiro256 rng_b(21);
  const RowCensus w = count_row<std::int64_t>(p, parts.c, options, rng_w);
  const RowCensus a = count_row<i128>(p, parts.c, options, rng_a);
  const RowCensus b = count_row<BigInt>(p, parts.c, options, rng_b);
  EXPECT_FALSE(a.exact);
  EXPECT_EQ(w.ones, b.ones);
  EXPECT_EQ(a.ones, b.ones);
  EXPECT_EQ(w.evaluations, b.evaluations);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(RowCensus, Int64ModelMatchesI128AtTheEdgeOfItsGate) {
  // For each k, at the largest valid n whose model_int is int64, the int64
  // model's coef, chain and count must equal the i128 model's on the zero
  // vector, the all-(q - 1) vector and seeded digit vectors, for C blocks
  // of all zeros, all q - 1 and seeded digits.  A gate that admits too much
  // overflows here, which the UBSan build reports.
  std::size_t sizes = 0;
  for (unsigned k = 2; k <= 20; ++k) {
    std::optional<ConstructionParams> edge;
    for (std::size_t n = 5; model_int(n, k) == ModelInt::kInt64; n += 2) {
      if (ConstructionParams(n, k).valid()) edge.emplace(n, k);
    }
    if (!edge) continue;
    ++sizes;
    const ConstructionParams& p = *edge;
    const auto top = static_cast<std::uint32_t>(p.q() - 1);
    Xoshiro256 rng(p.n() * 37 + k);
    const std::vector<IntMatrix> blocks = {
        IntMatrix(p.half(), p.half()),
        IntMatrix(p.half(), p.half(), BigInt(static_cast<std::int64_t>(top))),
        FreeParts::random(p, rng).c};
    for (const IntMatrix& c : blocks) {
      const ShiftModel<std::int64_t> word(p, c);
      const ShiftModel<i128> wide(p, c);
      ASSERT_EQ(word.digits(), wide.digits());
      for (std::size_t d = 0; d < word.digits(); ++d) {
        EXPECT_EQ(i128{word.coef()[d]}, wide.coef()[d])
            << "(" << p.n() << ", " << k << ") digit " << d;
      }
      std::vector<std::vector<std::uint32_t>> vectors = {
          std::vector<std::uint32_t>(word.digits(), 0),
          std::vector<std::uint32_t>(word.digits(), top)};
      for (int i = 0; i < 50; ++i) {
        std::vector<std::uint32_t> dv(word.digits());
        for (auto& digit : dv) {
          digit = static_cast<std::uint32_t>(rng.below(p.q()));
        }
        vectors.push_back(std::move(dv));
      }
      std::vector<std::int64_t> x_word(p.n() - 1);
      std::vector<i128> x_wide(p.n() - 1);
      for (const auto& dv : vectors) {
        const std::int64_t shift = word.chain(dv, x_word);
        ASSERT_EQ(i128{shift}, wide.chain(dv, x_wide))
            << "(" << p.n() << ", " << k << ")";
        EXPECT_EQ(i128{word.count(shift)}, wide.count(i128{shift}))
            << "(" << p.n() << ", " << k << ")";
      }
    }
  }
  // (11, 2), (7, 3), (7, 4), (5, 5) and (5, 6).
  EXPECT_EQ(sizes, 5u);
}

TEST(RowCensus, PreparedStepDividesLikeTheOperatorAtEveryInt64Size) {
  // ShiftModel<int64_t>::count takes floor and ceil by the step q^L from
  // a prepared divisor.  At every valid size the int64 model admits, they
  // must equal `/` rounded down and up: on 0, +-(2^63 - 1), exact
  // multiples of the step and their neighbours, and seeded numerators of
  // both signs.
  constexpr std::int64_t kMax = INT64_MAX;
  std::size_t steps = 0;
  Xoshiro256 rng(41);
  for (unsigned k = 2; k <= 20; ++k) {
    for (std::size_t n = 5; model_int(n, k) == ModelInt::kInt64; n += 2) {
      const ConstructionParams p(n, k);
      if (!p.valid()) continue;
      ++steps;
      const std::int64_t step = p.m().to_int64();
      const ccmx::util::Divisor divisor(static_cast<std::uint64_t>(step));
      std::vector<std::int64_t> numerators = {0, kMax, -kMax};
      for (const std::int64_t mult : {std::int64_t{1}, std::int64_t{3},
                                      kMax / step}) {
        for (const i128 v : {i128{mult} * step, -i128{mult} * step}) {
          for (const i128 near : {v - 1, v, v + 1}) {
            if (near >= -i128{kMax} - 1 && near <= kMax) {
              numerators.push_back(static_cast<std::int64_t>(near));
            }
          }
        }
      }
      for (int i = 0; i < 100; ++i) {
        numerators.push_back(static_cast<std::int64_t>(rng()) >>
                             rng.below(64));
      }
      for (const std::int64_t a : numerators) {
        const std::int64_t quot = a / step;
        const bool inexact = quot * step != a;
        EXPECT_EQ(divisor.floor(a), quot - (inexact && a < 0 ? 1 : 0))
            << "floor(" << a << " / " << step << ") at (" << n << ", " << k
            << ")";
        EXPECT_EQ(divisor.ceil(a), quot + (inexact && a > 0 ? 1 : 0))
            << "ceil(" << a << " / " << step << ") at (" << n << ", " << k
            << ")";
      }
    }
  }
  EXPECT_GE(steps, 5u);
}

/// The sampled census rebuilt from its definition: one base draw from the
/// caller's stream, sample s's own generator, below(q) per digit, the
/// BigInt model's full chain and interval count, and ones = q^digits *
/// sum / samples.
BigInt sampled_oracle(const ConstructionParams& p, const IntMatrix& c,
                      std::size_t samples, Xoshiro256& rng) {
  const ShiftModel<BigInt> model(p, c);
  const std::uint64_t base_seed = rng();
  std::vector<std::uint32_t> dv(model.digits());
  std::vector<BigInt> x(p.n() - 1);
  BigInt sum(0);
  for (std::size_t s = 0; s < samples; ++s) {
    Xoshiro256 draw(base_seed + 0x9e3779b97f4a7c15ULL * (s + 1));
    for (auto& digit : dv) {
      digit = static_cast<std::uint32_t>(draw.below(p.q()));
    }
    sum += model.count(model.chain(dv, x));
  }
  return BigInt::pow(BigInt(static_cast<std::int64_t>(p.q())),
                     static_cast<unsigned>(model.digits())) *
         sum / BigInt(static_cast<std::int64_t>(samples));
}

TEST(RowCensus, SampledCensusMatchesAnIndependentRebuild) {
  // On every integer type row_census picks: int64 at (7, 2), (9, 2) and
  // (11, 2), i128 at (9, 3) and BigInt at (9, 11).
  struct Size {
    std::size_t n;
    unsigned k;
    ModelInt type;
  };
  for (const Size& size : {Size{7, 2, ModelInt::kInt64},
                           Size{9, 2, ModelInt::kInt64},
                           Size{11, 2, ModelInt::kInt64},
                           Size{9, 3, ModelInt::kI128},
                           Size{9, 11, ModelInt::kBigInt}}) {
    const ConstructionParams p(size.n, size.k);
    ASSERT_EQ(model_int(size.n, size.k), size.type);
    Xoshiro256 seed_rng(size.n * 41 + size.k);
    const FreeParts parts = FreeParts::random(p, seed_rng);
    CensusOptions options;
    options.samples = 3000;
    Xoshiro256 rng(size.n + size.k);
    Xoshiro256 oracle_rng(size.n + size.k);
    const RowCensus census = row_census(p, parts.c, options, rng);
    EXPECT_FALSE(census.exact);
    EXPECT_EQ(census.evaluations, options.samples);
    EXPECT_EQ(census.ones,
              sampled_oracle(p, parts.c, options.samples, oracle_rng))
        << "(" << size.n << ", " << size.k << ")";
    EXPECT_EQ(rng(), oracle_rng());  // one base draw from the caller
  }
}

TEST(RowCensus, HistogramMatchesTheRecomputeSweepOnSeededBlocks) {
  // The shift histogram on both integer types against the recompute
  // sweep, the oracle, on 20 seeded C blocks: ones, and the q^digits
  // digit vectors each accounts for.
  const ConstructionParams p(7, 2);
  Xoshiro256 seed_rng(23);
  CensusOptions histogram;
  histogram.budget = std::uint64_t{1} << 30;
  CensusOptions recompute = histogram;
  recompute.delta = false;
  for (int block = 0; block < 20; ++block) {
    const FreeParts parts = FreeParts::random(p, seed_rng);
    Xoshiro256 rng(24);
    const RowCensus oracle = count_row<i128>(p, parts.c, recompute, rng);
    ASSERT_TRUE(oracle.exact);
    ASSERT_EQ(oracle.evaluations, 4782969u);  // 3^14
    const RowCensus fast = count_row<i128>(p, parts.c, histogram, rng);
    const RowCensus big = count_row<BigInt>(p, parts.c, histogram, rng);
    EXPECT_EQ(fast.ones, oracle.ones) << "block " << block;
    EXPECT_EQ(big.ones, oracle.ones) << "block " << block;
    EXPECT_EQ(fast.evaluations, oracle.evaluations) << "block " << block;
    EXPECT_EQ(big.evaluations, oracle.evaluations) << "block " << block;
  }
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
  // The histogram runs on one thread and the recompute sweep folds
  // per-worker integer accumulators, so ones and the evaluations counter
  // must be bit-for-bit identical for every degree and both engines.
  const ConstructionParams p(7, 2);
  Xoshiro256 seed_rng(11);
  const FreeParts parts = FreeParts::random(p, seed_rng);
  CensusOptions options;
  options.budget = std::uint64_t{1} << 30;
  const std::size_t degrees[] = {1, 2, 0};  // serial, forced 2, hardware
  std::vector<RowCensus> results;
  for (const std::size_t degree : degrees) {
    ccmx::util::set_parallelism(degree);
    for (const bool delta : {true, false}) {
      options.delta = delta;
      Xoshiro256 rng(12);
      results.push_back(row_census(p, parts.c, options, rng));
    }
  }
  ccmx::util::set_parallelism(0);
  // Each engine accounts for every (E, D_1..) assignment once: q^digits.
  std::uint64_t space = 1;
  const std::size_t digits = p.half() * p.l() + (p.half() - 1) * p.g();
  for (std::size_t d = 0; d < digits; ++d) space *= p.q();
  for (const RowCensus& census : results) {
    EXPECT_TRUE(census.exact);
    EXPECT_EQ(census.ones, results[0].ones);
    EXPECT_EQ(census.evaluations, space);
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
  // The default engine (the shift histogram) and the full-chain recompute
  // sweep (delta = false) count the same linear functional; their
  // censuses must match exactly.
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

TEST(RowCensus, CountersNameTheEngine) {
#ifdef CCMX_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out (CCMX_OBS=OFF)";
#else
  // census.convolutions counts the exact censuses the histogram settled,
  // census.exact_sweeps those the recompute sweep did.
  const bool was_enabled = ccmx::obs::enabled();
  ccmx::obs::set_enabled(true);
  ccmx::obs::reset_values();
  const ccmx::obs::Counter convolutions("census.convolutions");
  const ccmx::obs::Counter sweeps("census.exact_sweeps");
  const ConstructionParams p(7, 2);
  Xoshiro256 rng(25);
  const FreeParts parts = FreeParts::random(p, rng);
  CensusOptions options;
  options.budget = std::uint64_t{1} << 30;
  (void)row_census(p, parts.c, options, rng);
  EXPECT_EQ(convolutions.value(), 1u);
  EXPECT_EQ(sweeps.value(), 0u);
  options.delta = false;
  (void)row_census(p, parts.c, options, rng);
  EXPECT_EQ(convolutions.value(), 1u);
  EXPECT_EQ(sweeps.value(), 1u);
  ccmx::obs::reset_values();
  ccmx::obs::set_enabled(was_enabled);
#endif
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

/// Checks that the census's integer span keys (span_canonical's int64
/// words) and the rational RREF of A(C)^T split `blocks` into the same
/// classes.  A(C)'s pivots are all 1, so the two forms agree entry by
/// entry as well.
void expect_same_classes(const ConstructionParams& p,
                         const std::vector<IntMatrix>& blocks) {
  std::map<std::vector<std::int64_t>, std::size_t> by_words;
  std::map<std::string, std::size_t> by_rref;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const ccmx::la::SpanForm form = span_canonical(p, blocks[b]);
    ASSERT_FALSE(form.wide.has_value());
    const ccmx::la::RatMatrix rref = ccmx::la::column_span_canonical(
        ccmx::la::to_rational(build_a(p, blocks[b])));
    ASSERT_EQ(ccmx::la::to_rational(form.matrix()), rref) << blocks[b];
    const std::size_t word_class =
        by_words.emplace(form.words, b).first->second;
    const std::size_t rref_class =
        by_rref.emplace(rref.to_string(), b).first->second;
    ASSERT_EQ(word_class, rref_class) << "block " << b << ":\n" << blocks[b];
  }
  EXPECT_EQ(by_words.size(), by_rref.size());
}

TEST(Lemma34Census, IntegerKeysSplitLikeTheRationalRref) {
  for (const auto& [n, k] : {std::pair<std::size_t, unsigned>{5, 3},
                             std::pair<std::size_t, unsigned>{7, 2}}) {
    const ConstructionParams p(n, k);
    const auto total = static_cast<std::uint64_t>(total_rows(p).to_int64());
    std::vector<IntMatrix> blocks;
    for (std::uint64_t i = 0; i < total; ++i) {
      blocks.push_back(c_instance(p, i));
    }
    expect_same_classes(p, blocks);
  }
  // A seeded (9, 3) sample; its last 100 blocks repeat earlier ones, so
  // some classes hold two blocks.
  const ConstructionParams p(9, 3);
  Xoshiro256 rng(34);
  std::vector<IntMatrix> blocks;
  for (int i = 0; i < 1000; ++i) blocks.push_back(FreeParts::random(p, rng).c);
  for (int i = 0; i < 100; ++i) blocks.push_back(blocks[rng.below(1000)]);
  expect_same_classes(p, blocks);
}

TEST(Lemma34Census, SampledCountsEachDrawnCOnce) {
  // 3000 draws from the 3^9 C blocks at (7, 2) repeat about 200 of them:
  // tested counts the distinct draws, and each is its own span.
  const ConstructionParams p(7, 2);
  Xoshiro256 rng(12);
  const SpanCensus census = lemma34_census(p, 3000, rng);
  EXPECT_FALSE(census.exhaustive);
  EXPECT_LT(census.tested, 3000u);
  EXPECT_GT(census.tested, 2500u);
  EXPECT_EQ(census.distinct, census.tested);
}

TEST(Lemma34Census, WideFormsTakeTheFallback) {
  // Every exhaustive (7, 2) form fits int64.  At (21, 8) every form has
  // entries past int64, so each takes the BigInt fallback and keys into
  // the wide side set, which still finds the draws' spans distinct.
  const bool was_enabled = ccmx::obs::enabled();
  ccmx::obs::set_enabled(true);
  ccmx::obs::reset_values();
  const ccmx::obs::Counter wide("census.span_wide_forms");
  Xoshiro256 rng(21);
  const SpanCensus exhaustive =
      lemma34_census(ConstructionParams(7, 2), 20000, rng);
  EXPECT_EQ(exhaustive.distinct, 19683u);
  EXPECT_EQ(wide.value(), 0u);
  const SpanCensus sampled = lemma34_census(ConstructionParams(21, 8), 12, rng);
  EXPECT_EQ(sampled.tested, 12u);
  EXPECT_EQ(sampled.distinct, 12u);
#ifndef CCMX_OBS_DISABLED
  EXPECT_EQ(wide.value(), 12u);
#endif
  ccmx::obs::reset_values();
  ccmx::obs::set_enabled(was_enabled);
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
