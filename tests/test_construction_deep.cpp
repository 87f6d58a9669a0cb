// Deeper structural properties of the hard-instance family: the forced
// dependency against a rational solve, digit-geometry identities, instance
// enumeration bijectivity, canonical-form invariances (rational and
// integer).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "core/construction.hpp"
#include "linalg/det.hpp"
#include "linalg/rref.hpp"
#include "util/rng.hpp"

namespace {

using namespace ccmx::core;
using ccmx::la::IntMatrix;
using ccmx::la::RatMatrix;
using ccmx::num::BigInt;
using ccmx::num::Rational;
using ccmx::util::Xoshiro256;

TEST(ForcedDependency, MatchesRationalSolveExactly) {
  // When M is singular, the x forced by the triangular structure solves
  // A x = B u over the rationals (the Lemma 3.2 dependency, recovered two
  // independent ways).
  const ConstructionParams p(7, 2);
  Xoshiro256 rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const FreeParts seed = FreeParts::random(p, rng);
    const auto parts = lemma35_complete(p, seed.c, seed.e);
    ASSERT_TRUE(parts.has_value());
    const IntMatrix a = build_a(p, parts->c);
    const IntMatrix b = build_b(p, parts->d, parts->e, parts->y);
    const auto u = p.u_vector();
    const std::vector<BigInt> bu = multiply(b, u);
    std::vector<Rational> rhs;
    for (const BigInt& v : bu) rhs.emplace_back(v);
    const auto x = ccmx::la::solve(ccmx::la::to_rational(a), rhs);
    ASSERT_TRUE(x.has_value());
    // The rational solution must be integral and reproduce A x = B u.
    for (const Rational& xi : *x) EXPECT_TRUE(xi.is_integer());
    const auto ax = multiply(ccmx::la::to_rational(a), *x);
    for (std::size_t i = 0; i < ax.size(); ++i) {
      EXPECT_EQ(ax[i], Rational(bu[i]));
    }
  }
}

TEST(DigitGeometry, UDecomposesAsHighPowersTimesM) {
  // u = [m' * (-q)^{G-1}, .., m' * (-q)^0 | w] with m' = (-q)^L: the D
  // columns of u are exactly m' times a shorter power ladder, and the E
  // columns are w — the identity the census interval-count relies on.
  for (const auto& [n, k] : std::vector<std::pair<std::size_t, unsigned>>{
           {7, 2}, {9, 3}, {11, 2}}) {
    const ConstructionParams p(n, k);
    const auto u = p.u_vector();
    const auto w = p.w_vector();
    const BigInt m_signed = BigInt::pow(
        BigInt(-static_cast<std::int64_t>(p.q())),
        static_cast<unsigned>(p.l()));
    // E columns: the last L entries of u are w.
    for (std::size_t t = 0; t < p.l(); ++t) {
      EXPECT_EQ(u[p.g() + t], w[t]);
    }
    // D columns: u[j] = m_signed * (-q)^{G-1-j}.
    const BigInt neg_q(-static_cast<std::int64_t>(p.q()));
    for (std::size_t j = 0; j < p.g(); ++j) {
      EXPECT_EQ(u[j],
                m_signed * BigInt::pow(neg_q,
                                       static_cast<unsigned>(p.g() - 1 - j)));
    }
    // |m| = q^L = p.m().
    EXPECT_EQ(m_signed.abs(), p.m());
  }
}

TEST(InstanceEnumeration, DistinctIndicesDistinctInstances) {
  const ConstructionParams p(7, 2);
  std::set<std::string> c_forms;
  for (std::uint64_t index = 0; index < 200; ++index) {
    c_forms.insert(c_instance(p, index).to_string());
  }
  EXPECT_EQ(c_forms.size(), 200u);
  std::set<std::string> dey_forms;
  const IntMatrix c = c_instance(p, 5);
  for (std::uint64_t index = 0; index < 200; ++index) {
    const FreeParts parts = dey_instance(p, c, index);
    dey_forms.insert(parts.d.to_string() + "|" + parts.e.to_string() + "|" +
                     std::to_string(parts.y.size()) + parts.y[0].to_string() +
                     parts.y[1].to_string() + parts.y[2].to_string() +
                     parts.y[3].to_string() + parts.y[4].to_string() +
                     parts.y[5].to_string());
  }
  EXPECT_EQ(dey_forms.size(), 200u);
}

TEST(SpanCanonical, InvariantUnderColumnOperations) {
  // The canonical span form must not change if we replace A's columns by
  // invertible combinations (it is a property of the span, not the basis).
  const ConstructionParams p(7, 2);
  Xoshiro256 rng(4);
  const FreeParts parts = FreeParts::random(p, rng);
  const IntMatrix a = build_a(p, parts.c);
  RatMatrix ra = ccmx::la::to_rational(a);
  const RatMatrix canon = ccmx::la::column_span_canonical(ra);
  // col_1 += 3 col_0; col_2 *= 2.
  for (std::size_t i = 0; i < ra.rows(); ++i) {
    ra(i, 1) += Rational(3) * ra(i, 0);
    ra(i, 2) *= Rational(2);
  }
  EXPECT_EQ(ccmx::la::column_span_canonical(ra), canon);
}

TEST(SpanCanonical, IntegerFormInvariantUnderColumnOperations) {
  // The integer twin: the same operations on A's integer columns, plus a
  // swap and a negation, leave span_canonical's int64 words unchanged.
  const ConstructionParams p(7, 2);
  Xoshiro256 rng(4);
  const FreeParts parts = FreeParts::random(p, rng);
  IntMatrix a = build_a(p, parts.c);
  const ccmx::la::SpanForm canon = span_canonical(p, parts.c);
  // col_1 += 3 col_0; col_2 *= 2; swap col_3, col_4; col_5 = -col_5.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    a(i, 1) += a(i, 0) * 3;
    a(i, 2) *= 2;
    std::swap(a(i, 3), a(i, 4));
    a(i, 5) = -a(i, 5);
  }
  const ccmx::la::SpanForm moved = ccmx::la::column_span_form(a);
  EXPECT_EQ(moved.rank, canon.rank);
  EXPECT_EQ(moved.words, canon.words);
  EXPECT_EQ(moved.rank, p.n() - 1);
}

TEST(RestrictedSingular, RandomInstancesAlmostNeverSingular) {
  // Random (D, E, y) hit the unique valid y with probability ~ q^{-(n-1)};
  // over 2000 draws at (7,2) expect a handful at most.
  const ConstructionParams p(7, 2);
  Xoshiro256 rng(5);
  int singular = 0;
  const FreeParts base = FreeParts::random(p, rng);
  for (int trial = 0; trial < 2000; ++trial) {
    FreeParts parts = FreeParts::random(p, rng);
    parts.c = base.c;
    if (restricted_singular(p, parts)) ++singular;
  }
  EXPECT_LE(singular, 25);  // expected ~ 2000 * 3^16/3^24 = 0.3
}

TEST(BuildB, ZeroBlocksWhereTheFigureSaysZero) {
  const ConstructionParams p(9, 2);
  Xoshiro256 rng(6);
  const FreeParts parts = FreeParts::random(p, rng);
  const IntMatrix b = build_b(p, parts.d, parts.e, parts.y);
  // D rows: zero outside columns [0, G).
  for (std::size_t i = 0; i < p.half(); ++i) {
    for (std::size_t j = p.g(); j + 1 < p.n(); ++j) {
      EXPECT_TRUE(b(i, j).is_zero());
    }
  }
  // E rows: zero outside columns [G, n-1).
  for (std::size_t i = p.half(); i + 1 < p.n(); ++i) {
    for (std::size_t j = 0; j < p.g(); ++j) {
      EXPECT_TRUE(b(i, j).is_zero());
    }
  }
}

TEST(Lemma32Converse, NonMemberMeansNonsingular) {
  // If B u is NOT in Span(A) the matrix must be nonsingular — run both
  // directions explicitly.
  const ConstructionParams p(7, 3);
  Xoshiro256 rng(7);
  int nonsingular_seen = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const FreeParts parts = FreeParts::random(p, rng);
    const IntMatrix a = build_a(p, parts.c);
    const IntMatrix b = build_b(p, parts.d, parts.e, parts.y);
    const bool member = lemma32_singular(p, a, b);
    EXPECT_EQ(ccmx::la::is_singular(build_m(p, a, b)), member);
    if (!member) ++nonsingular_seen;
  }
  EXPECT_GT(nonsingular_seen, 10);
}

TEST(PaperScaling, FreeBitCountsMatchSection3) {
  // The free C bits are k (n-1)^2/4 and the free (D,E,y) bits k (n^2-1)/2;
  // together they are ~3/4 of the k n^2 total the theorem charges.
  for (const auto& [n, k] : std::vector<std::pair<std::size_t, unsigned>>{
           {7, 2}, {15, 3}, {31, 2}}) {
    const ConstructionParams p(n, k);
    EXPECT_EQ(p.free_entries_c() * 4, (n - 1) * (n - 1));
    EXPECT_EQ(p.free_entries_dey() * 2, n * n - 1);
  }
}

}  // namespace
