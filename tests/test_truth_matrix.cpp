// Truth matrices, rectangles, fooling sets and lower-bound certificates,
// validated on functions whose answers are known in closed form.
#include <gtest/gtest.h>

#include "comm/bounds.hpp"
#include "comm/rectangles.hpp"
#include "comm/truth_matrix.hpp"
#include "linalg/fp.hpp"
#include "util/rng.hpp"

namespace {

using namespace ccmx::comm;
using ccmx::util::Xoshiro256;

/// Rank over Z_p of the 0/1 matrix behind a truth matrix.
std::size_t rank_mod_p(const TruthMatrix& m, std::uint64_t p) {
  ccmx::la::ModMatrix entries(m.rows(), m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) entries(r, c) = m.get(r, c);
  }
  return ccmx::la::rank_mod_p(entries, p);
}

/// EQ_s: the 2^s x 2^s identity truth matrix.
TruthMatrix equality_matrix(unsigned s) {
  const std::size_t side = std::size_t{1} << s;
  return TruthMatrix::build(side, side,
                            [](std::size_t r, std::size_t c) { return r == c; });
}

TEST(TruthMatrix, BuildAndCounts) {
  const TruthMatrix eq = equality_matrix(3);
  EXPECT_EQ(eq.rows(), 8u);
  EXPECT_EQ(eq.ones(), 8u);
  EXPECT_EQ(eq.zeros(), 56u);
  EXPECT_TRUE(eq.get(5, 5));
  EXPECT_FALSE(eq.get(5, 6));
}

TEST(TruthMatrix, ComplementFlipsEverything) {
  const TruthMatrix eq = equality_matrix(3);
  const TruthMatrix neq = eq.complement();
  EXPECT_EQ(neq.ones(), eq.zeros());
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      EXPECT_NE(eq.get(r, c), neq.get(r, c));
    }
  }
}

TEST(TruthMatrix, RankGf2OfIdentityAndConstant) {
  EXPECT_EQ(equality_matrix(4).rank_gf2(), 16u);
  TruthMatrix ones(5, 7);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 7; ++c) ones.set(r, c, true);
  }
  EXPECT_EQ(ones.rank_gf2(), 1u);
  EXPECT_EQ(TruthMatrix(4, 4).rank_gf2(), 0u);
}

TEST(TruthMatrix, RankGf2VsRankModP) {
  // A GF(2)-degenerate example: the 2x2 all-but-one matrix has rank 2 over
  // any field; [[1,1],[1,1]] has rank 1.
  TruthMatrix m(2, 2);
  m.set(0, 0, true);
  m.set(0, 1, true);
  m.set(1, 0, true);
  EXPECT_EQ(m.rank_gf2(), 2u);
  EXPECT_EQ(rank_mod_p(m, 1000003), 2u);
  // Over GF(2) the 4x4 "parity" matrix drops rank vs Z_p.
  TruthMatrix parity(3, 3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) parity.set(r, c, ((r + c) % 2) != 0);
  }
  EXPECT_LE(parity.rank_gf2(), rank_mod_p(parity, 1000003));
}

TEST(TruthMatrix, Submatrix) {
  const TruthMatrix eq = equality_matrix(3);
  const TruthMatrix sub = eq.submatrix({1, 3, 5}, {3, 5});
  EXPECT_EQ(sub.rows(), 3u);
  EXPECT_EQ(sub.cols(), 2u);
  EXPECT_TRUE(sub.get(1, 0));   // (3,3)
  EXPECT_TRUE(sub.get(2, 1));   // (5,5)
  EXPECT_FALSE(sub.get(0, 0));  // (1,3)
}

TEST(Rectangles, ExactOnIdentity) {
  const TruthMatrix eq = equality_matrix(4);
  // Max 1-rectangle of EQ is a single cell.
  const Rectangle one = max_rectangle_exact(eq, true);
  EXPECT_TRUE(one.exact);
  EXPECT_EQ(one.area(), 1u);
  EXPECT_TRUE(is_monochromatic(eq, true, one));
  // Max 0-rectangle of EQ_16 is 8x8 (split rows/cols in half).
  const Rectangle zero = max_rectangle_exact(eq, false);
  EXPECT_TRUE(is_monochromatic(eq, false, zero));
  EXPECT_EQ(zero.area(), 64u);
}

TEST(Rectangles, ExactOnBlockMatrix) {
  // 6x6 with an all-ones 3x4 block (rows 0-2, cols 0-3).
  TruthMatrix m(6, 6);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) m.set(r, c, true);
  }
  const Rectangle rect = max_rectangle_exact(m, true);
  EXPECT_EQ(rect.area(), 12u);
  EXPECT_EQ(rect.row_set.size(), 3u);
  EXPECT_EQ(rect.col_set.size(), 4u);
}

TEST(Rectangles, ExactHandlesNoValueCells) {
  TruthMatrix empty(4, 4);
  const Rectangle rect = max_rectangle_exact(empty, true);
  EXPECT_EQ(rect.area(), 0u);
  const Rectangle full = max_rectangle_exact(empty, false);
  EXPECT_EQ(full.area(), 16u);
}

TEST(Rectangles, GreedyNeverBeatsExactAndIsValid) {
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    TruthMatrix m(12, 12);
    for (std::size_t r = 0; r < 12; ++r) {
      for (std::size_t c = 0; c < 12; ++c) m.set(r, c, rng.coin());
    }
    const Rectangle exact = max_rectangle_exact(m, true);
    Xoshiro256 greedy_rng(static_cast<std::uint64_t>(trial));
    const Rectangle greedy = max_rectangle_greedy(m, true, greedy_rng);
    EXPECT_TRUE(is_monochromatic(m, true, greedy));
    EXPECT_LE(greedy.area(), exact.area());
    EXPECT_GE(greedy.area(), 1u);
  }
}

TEST(FoolingSets, DiagonalOfEqualityIsMaximal) {
  const TruthMatrix eq = equality_matrix(4);
  Xoshiro256 rng(3);
  const auto fooling = greedy_fooling_set(eq, true, rng);
  EXPECT_TRUE(is_fooling_set(eq, true, fooling));
  // The 1s of EQ form a perfect fooling set; greedy must find all of it.
  EXPECT_EQ(fooling.size(), 16u);
}

TEST(FoolingSets, ValidatorCatchesViolations) {
  TruthMatrix ones(2, 2);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 2; ++c) ones.set(r, c, true);
  }
  // Two cells of an all-ones matrix always violate the property.
  EXPECT_FALSE(is_fooling_set(ones, true, {{0, 0}, {1, 1}}));
  EXPECT_TRUE(is_fooling_set(ones, true, {{0, 0}}));
}

TEST(IdentitySubmatrix, EqualityEmbedsItselfFully) {
  const TruthMatrix eq = equality_matrix(4);
  Xoshiro256 rng(21);
  const auto identity = greedy_identity_submatrix(eq, rng);
  EXPECT_TRUE(is_identity_submatrix(eq, identity));
  EXPECT_EQ(identity.size(), 16u);
}

TEST(IdentitySubmatrix, AllOnesEmbedsOnlyOneCell) {
  TruthMatrix ones(6, 6);
  for (std::size_t r = 0; r < 6; ++r) {
    for (std::size_t c = 0; c < 6; ++c) ones.set(r, c, true);
  }
  Xoshiro256 rng(22);
  EXPECT_EQ(greedy_identity_submatrix(ones, rng).size(), 1u);
}

TEST(IdentitySubmatrix, StrongerThanFoolingSet) {
  // Every identity submatrix is a fooling set, never larger than the best
  // fooling set the greedy finds on the same matrix.
  Xoshiro256 rng(23);
  for (int trial = 0; trial < 10; ++trial) {
    TruthMatrix m(16, 16);
    for (std::size_t r = 0; r < 16; ++r) {
      for (std::size_t c = 0; c < 16; ++c) m.set(r, c, rng.coin());
    }
    const auto identity = greedy_identity_submatrix(m, rng, 4);
    EXPECT_TRUE(is_identity_submatrix(m, identity));
    EXPECT_TRUE(is_fooling_set(m, true, identity));
  }
}

TEST(IdentitySubmatrix, ValidatorCatchesViolations) {
  TruthMatrix m(2, 2);
  m.set(0, 0, true);
  m.set(1, 1, true);
  m.set(0, 1, true);  // breaks the off-diagonal-zero requirement
  EXPECT_FALSE(is_identity_submatrix(m, {{0, 0}, {1, 1}}));
  m.set(0, 1, false);
  EXPECT_TRUE(is_identity_submatrix(m, {{0, 0}, {1, 1}}));
}

TEST(Certificate, EqualityLowerBoundIsTight) {
  // CC(EQ_s) = s + 1; every certificate should give ~s bits.
  for (unsigned s : {3u, 5u}) {
    const TruthMatrix eq = equality_matrix(s);
    Xoshiro256 rng(s);
    const auto cert = certificate(eq, rng);
    EXPECT_EQ(cert.rank_gf2, std::size_t{1} << s);
    EXPECT_DOUBLE_EQ(cert.log_rank_bits, static_cast<double>(s));
    EXPECT_DOUBLE_EQ(cert.fooling_bits, static_cast<double>(s));
    // The exact rectangle engine applies up to min-dim 24 (EQ_8); beyond
    // that the greedy engine is used and rect_exact honestly reports it.
    EXPECT_EQ(cert.rect_exact, (std::size_t{1} << s) <= 24);
    // d(EQ) >= 2^s ones-rectangles + >= 2 zero rectangles.
    EXPECT_GE(cert.cover_lower_bound, static_cast<double>(1u << s));
    EXPECT_GE(cert.best_bits, static_cast<double>(s));
    // No certificate can exceed the trivial upper bound.
    EXPECT_LE(cert.best_bits,
              static_cast<double>(trivial_upper_bound(s, s)));
  }
}

TEST(Certificate, ConstantFunctionNeedsNothing) {
  TruthMatrix zeros(8, 8);
  Xoshiro256 rng(4);
  const auto cert = certificate(zeros, rng);
  EXPECT_EQ(cert.best_bits, 0.0);
  EXPECT_EQ(cert.rank_gf2, 0u);
}

}  // namespace
