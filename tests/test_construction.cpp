// The paper's hard-instance family: geometry, Lemma 3.2, the scalar
// characterization, the Lemma 3.5(a) completion, and Lemma 3.4 distinctness.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/construction.hpp"
#include "linalg/det.hpp"
#include "linalg/rref.hpp"
#include "util/rng.hpp"

namespace {

using namespace ccmx::core;
using ccmx::la::IntMatrix;
using ccmx::num::BigInt;
using ccmx::util::Xoshiro256;

TEST(Params, GeometryInvariants) {
  for (const auto& [n, k] : std::vector<std::pair<std::size_t, unsigned>>{
           {7, 2}, {9, 2}, {7, 3}, {11, 2}, {13, 4}, {15, 3}}) {
    const ConstructionParams p(n, k);
    ASSERT_TRUE(p.valid()) << n << "," << k;
    EXPECT_EQ(p.q(), (std::uint64_t{1} << k) - 1);
    EXPECT_EQ(p.g() + p.l(), n - 1);  // D and E tile the columns of B
    EXPECT_GE(p.l(), 1u);
    EXPECT_EQ(p.free_entries_dey(),
              (n * n - 1) / 2);  // the paper's (n^2 - 1)/2 count
    // ceil(log_q n) is correct: q^t >= n > q^{t-1}.
    const BigInt q(static_cast<std::int64_t>(p.q()));
    EXPECT_GE(BigInt::pow(q, static_cast<unsigned>(p.log_q_n())),
              BigInt(static_cast<std::int64_t>(n)));
    if (p.log_q_n() > 0) {
      EXPECT_LT(BigInt::pow(q, static_cast<unsigned>(p.log_q_n() - 1)),
                BigInt(static_cast<std::int64_t>(n)));
    }
  }
}

TEST(Params, RejectsDegenerateInputs) {
  EXPECT_THROW((void)ConstructionParams(8, 2), ccmx::util::contract_error);
  EXPECT_THROW((void)ConstructionParams(7, 1), ccmx::util::contract_error);
  EXPECT_FALSE(ConstructionParams(5, 2).valid());  // L = 0
  EXPECT_FALSE(ConstructionParams(3, 2).valid());
}

TEST(Params, UVectorIsPowersOfMinusQ) {
  const ConstructionParams p(7, 2);
  const auto u = p.u_vector();
  ASSERT_EQ(u.size(), 6u);
  EXPECT_EQ(u[5], BigInt(1));
  EXPECT_EQ(u[4], BigInt(-3));
  EXPECT_EQ(u[3], BigInt(9));
  EXPECT_EQ(u[0], BigInt(-243));  // (-3)^5
  const auto w = p.w_vector();
  ASSERT_EQ(w.size(), p.l());
  EXPECT_EQ(w.back(), BigInt(1));
}

TEST(BuildM, FixedPatternMatchesFigure1) {
  const ConstructionParams p(7, 2);
  Xoshiro256 rng(1);
  const FreeParts parts = FreeParts::random(p, rng);
  const IntMatrix m = build_m(p, parts);
  const std::size_t n = 7;
  ASSERT_EQ(m.rows(), 2 * n);
  // Column 0 = e_0; column n = e_{n-1}.
  for (std::size_t i = 0; i < 2 * n; ++i) {
    EXPECT_EQ(m(i, 0), i == 0 ? BigInt(1) : BigInt(0));
    EXPECT_EQ(m(i, n), i == n - 1 ? BigInt(1) : BigInt(0));
  }
  // Top of columns 1..n-1 is zero.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 1; j < n; ++j) EXPECT_EQ(m(i, j), BigInt(0));
  }
  // Top-right: antidiagonal of 1s with q one row below.
  const BigInt q(static_cast<std::int64_t>(p.q()));
  for (std::size_t j = n + 1; j < 2 * n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      const BigInt expected = (i + j == 2 * n - 1)
                                  ? BigInt(1)
                                  : (i + j == 2 * n ? q : BigInt(0));
      EXPECT_EQ(m(i, j), expected) << i << "," << j;
    }
  }
  // All entries fit k bits (are in [0, q]).
  for (std::size_t i = 0; i < 2 * n; ++i) {
    for (std::size_t j = 0; j < 2 * n; ++j) {
      EXPECT_GE(m(i, j), BigInt(0));
      EXPECT_LE(m(i, j), q);
    }
  }
}

TEST(BuildA, SpanAlwaysFullColumnRank) {
  Xoshiro256 rng(2);
  for (const auto& [n, k] : std::vector<std::pair<std::size_t, unsigned>>{
           {7, 2}, {9, 3}, {11, 2}}) {
    const ConstructionParams p(n, k);
    for (int trial = 0; trial < 5; ++trial) {
      const FreeParts parts = FreeParts::random(p, rng);
      EXPECT_EQ(ccmx::la::rank(build_a(p, parts.c)), n - 1);
    }
  }
}

TEST(Lemma32, MatchesDeterminant) {
  Xoshiro256 rng(3);
  const ConstructionParams p(7, 2);
  int singular_seen = 0;
  for (int trial = 0; trial < 40; ++trial) {
    FreeParts parts = FreeParts::random(p, rng);
    if (trial % 2 == 0) {
      // Half the trials use the completion so singular cases appear.
      if (const auto done = lemma35_complete(p, parts.c, parts.e)) {
        parts = *done;
      }
    }
    const IntMatrix a = build_a(p, parts.c);
    const IntMatrix b = build_b(p, parts.d, parts.e, parts.y);
    const bool by_det = ccmx::la::is_singular(build_m(p, a, b));
    EXPECT_EQ(lemma32_singular(p, a, b), by_det);
    if (by_det) ++singular_seen;
  }
  EXPECT_GT(singular_seen, 0);
}

TEST(ScalarCharacterization, MatchesDeterminant) {
  Xoshiro256 rng(4);
  for (const auto& [n, k] : std::vector<std::pair<std::size_t, unsigned>>{
           {7, 2}, {7, 3}, {9, 2}}) {
    const ConstructionParams p(n, k);
    int singular_seen = 0;
    for (int trial = 0; trial < 30; ++trial) {
      FreeParts parts = FreeParts::random(p, rng);
      if (trial % 2 == 0) {
        if (const auto done = lemma35_complete(p, parts.c, parts.e)) {
          parts = *done;
        }
      }
      const bool fast = restricted_singular(p, parts);
      const bool slow = ccmx::la::is_singular(build_m(p, parts));
      EXPECT_EQ(fast, slow) << "n=" << n << " k=" << k << " trial=" << trial;
      if (slow) ++singular_seen;
    }
    EXPECT_GT(singular_seen, 0) << "n=" << n << " k=" << k;
  }
}

class Lemma35Sweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned>> {};

TEST_P(Lemma35Sweep, CompletionAlwaysSucceedsAndIsSingular) {
  const auto [n, k] = GetParam();
  const ConstructionParams p(n, k);
  ASSERT_TRUE(p.valid());
  Xoshiro256 rng(n * 100 + k);
  for (int trial = 0; trial < 25; ++trial) {
    const FreeParts seed = FreeParts::random(p, rng);
    const auto completed = lemma35_complete(p, seed.c, seed.e);
    ASSERT_TRUE(completed.has_value()) << "n=" << n << " k=" << k;
    EXPECT_TRUE(restricted_singular(p, *completed));
    // The completion preserves C and E.
    EXPECT_EQ(completed->c, seed.c);
    EXPECT_EQ(completed->e, seed.e);
    // All synthesized digits lie in [0, q-1].
    const BigInt qm1(static_cast<std::int64_t>(p.q() - 1));
    for (std::size_t i = 0; i < p.half(); ++i) {
      for (std::size_t j = 0; j < p.g(); ++j) {
        EXPECT_GE(completed->d(i, j), BigInt(0));
        EXPECT_LE(completed->d(i, j), qm1);
      }
    }
    for (const BigInt& v : completed->y) {
      EXPECT_GE(v, BigInt(0));
      EXPECT_LE(v, qm1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Params, Lemma35Sweep,
    ::testing::Values(std::make_tuple(std::size_t{7}, 2u),
                      std::make_tuple(std::size_t{7}, 3u),
                      std::make_tuple(std::size_t{9}, 2u),
                      std::make_tuple(std::size_t{9}, 4u),
                      std::make_tuple(std::size_t{11}, 2u),
                      std::make_tuple(std::size_t{13}, 3u)));

TEST(Lemma34, DistinctCGiveDistinctSpans) {
  const ConstructionParams p(7, 2);
  Xoshiro256 rng(5);
  std::set<std::string> cs;
  std::set<std::string> spans;
  for (int trial = 0; trial < 40; ++trial) {
    const FreeParts parts = FreeParts::random(p, rng);
    cs.insert(parts.c.to_string());
    spans.insert(span_canonical(p, parts.c).matrix().to_string());
  }
  EXPECT_EQ(cs.size(), spans.size());
}

TEST(InstanceEnumeration, RoundTripsAndCovers) {
  const ConstructionParams p(7, 2);  // q = 3, C has 9 cells
  // First and last C instances.
  const IntMatrix first = c_instance(p, 0);
  EXPECT_EQ(first, IntMatrix(3, 3));
  const std::uint64_t total = 19683;  // 3^9
  const IntMatrix last = c_instance(p, total - 1);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(last(i, j), BigInt(2));
  }
  EXPECT_THROW((void)c_instance(p, total), ccmx::util::contract_error);
  // dey round trip: index 0 is all zeros; distinct indices give distinct
  // parts.
  const FreeParts z = dey_instance(p, first, 0);
  EXPECT_TRUE(z.d == IntMatrix(3, p.g()));
  EXPECT_TRUE(z.e == IntMatrix(3, p.l()));
  const FreeParts one = dey_instance(p, first, 1);
  EXPECT_EQ(one.d(0, 0), BigInt(1));
}

TEST(FreePartsRandom, RespectsDigitRange) {
  const ConstructionParams p(9, 3);
  Xoshiro256 rng(6);
  const FreeParts parts = FreeParts::random(p, rng);
  const BigInt qm1(static_cast<std::int64_t>(p.q() - 1));
  for (std::size_t i = 0; i < p.half(); ++i) {
    for (std::size_t j = 0; j < p.half(); ++j) {
      EXPECT_GE(parts.c(i, j), BigInt(0));
      EXPECT_LE(parts.c(i, j), qm1);
    }
  }
  EXPECT_EQ(parts.y.size(), 8u);
}

}  // namespace
