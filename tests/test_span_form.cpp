// Differential tests for la::column_span_form, the canonical integer form
// of a column span: it must equal lambda * column_span_canonical (the
// rational RREF) entry by entry, lambda the least common denominator, on
// every shape, rank and sign, and on the int64 path as on its BigInt
// fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "bigint/bigint.hpp"
#include "bigint/rational.hpp"
#include "core/construction.hpp"
#include "linalg/rref.hpp"
#include "linalg/span_form.hpp"
#include "util/rng.hpp"

namespace {

using ccmx::la::column_span_form;
using ccmx::la::IntMatrix;
using ccmx::la::RatMatrix;
using ccmx::la::SpanForm;
using ccmx::num::BigInt;
using ccmx::num::Rational;
using ccmx::util::Xoshiro256;

/// The least common multiple of the canonical form's denominators.
BigInt least_denominator(const RatMatrix& canon) {
  BigInt lambda(1);
  for (const Rational& v : canon.data()) {
    lambda = lambda / BigInt::gcd(lambda, v.den()) * v.den();
  }
  return lambda;
}

/// Checks form == lambda * column_span_canonical(m), entry by entry, and
/// returns lambda.
BigInt expect_scaled_rref(const IntMatrix& m, const SpanForm& form) {
  const RatMatrix canon =
      ccmx::la::column_span_canonical(ccmx::la::to_rational(m));
  const BigInt lambda = least_denominator(canon);
  const IntMatrix got = form.matrix();
  EXPECT_EQ(form.rank, canon.rows()) << m;
  EXPECT_EQ(form.dim, m.rows()) << m;
  if (got.rows() != canon.rows() || got.cols() != canon.cols()) {
    ADD_FAILURE() << "form is " << got.rows() << " x " << got.cols()
                  << ", canonical form " << canon.rows() << " x "
                  << canon.cols() << " for\n"
                  << m;
    return lambda;
  }
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      EXPECT_EQ(Rational(got(i, j)), Rational(lambda) * canon(i, j))
          << "entry (" << i << ", " << j << ") of the form of\n"
          << m;
    }
  }
  return lambda;
}

/// Up to 6 x 7, entries in [-9, 9], with forced rank deficiency: some
/// columns are (negated) copies of an earlier one or zero, some rows are
/// zero (so m^T has zero columns and the elimination skips them), and
/// m(0, 0) = 0 now and then forces a row swap.
IntMatrix random_matrix(Xoshiro256& rng) {
  const std::size_t rows = 1 + rng.below(6);
  const std::size_t cols = 1 + rng.below(7);
  IntMatrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      m(i, j) = BigInt(static_cast<std::int64_t>(rng.below(19)) - 9);
    }
  }
  for (std::size_t j = 1; j < cols; ++j) {
    const std::uint64_t roll = rng.below(8);
    if (roll < 2) {
      const std::size_t from = rng.below(j);
      const std::int64_t sign = roll == 0 ? 1 : -1;
      for (std::size_t i = 0; i < rows; ++i) m(i, j) = m(i, from) * sign;
    } else if (roll == 2) {
      for (std::size_t i = 0; i < rows; ++i) m(i, j) = BigInt(0);
    }
  }
  for (std::size_t i = 0; i < rows; ++i) {
    if (rng.below(6) == 0) {
      for (std::size_t j = 0; j < cols; ++j) m(i, j) = BigInt(0);
    }
  }
  if (rng.below(4) == 0) m(0, 0) = BigInt(0);
  return m;
}

TEST(SpanForm, MatchesTheScaledRationalRref) {
  Xoshiro256 rng(2026);
  std::size_t deficient = 0;
  std::size_t scaled = 0;
  for (int trial = 0; trial < 12000; ++trial) {
    const IntMatrix m = random_matrix(rng);
    const SpanForm form = column_span_form(m);
    EXPECT_FALSE(form.fallback) << m;
    EXPECT_FALSE(form.wide.has_value()) << m;
    const BigInt lambda = expect_scaled_rref(m, form);
    if (form.rank < std::min(m.rows(), m.cols())) ++deficient;
    if (lambda > BigInt(1)) ++scaled;
    if (HasFailure()) break;
  }
  // The sweep reaches both the rank-deficient inputs and the non-unit
  // pivots that the division, content and sign steps serve.
  EXPECT_GT(deficient, 1000u);
  EXPECT_GT(scaled, 1000u);
}

TEST(SpanForm, EdgeShapes) {
  // No columns, and a zero matrix: the span is {0}, the form has no rows.
  for (const IntMatrix& m : {IntMatrix(3, 0), IntMatrix(3, 2)}) {
    const SpanForm form = column_span_form(m);
    EXPECT_EQ(form.rank, 0u);
    EXPECT_EQ(form.dim, 3u);
    EXPECT_TRUE(form.words.empty());
    expect_scaled_rref(m, form);
  }
  // One column (0, -4, 6): RREF row (0, 1, -3/2), so lambda = 2 and the
  // form is (0, 2, -3), its pivot positive and its content 1.
  const IntMatrix column{{0}, {-4}, {6}};
  const SpanForm form = column_span_form(column);
  EXPECT_EQ(form.words, (std::vector<std::int64_t>{0, 2, -3}));
  expect_scaled_rref(column, form);
}

TEST(SpanForm, InvariantUnderIntegerColumnOperations) {
  // The form depends on the span, not on the generators: adding a
  // multiple of one column to another, scaling a column by a nonzero
  // integer, negating it and swapping two leave it unchanged.
  Xoshiro256 rng(77);
  for (int trial = 0; trial < 500; ++trial) {
    IntMatrix m = random_matrix(rng);
    const SpanForm before = column_span_form(m);
    for (int op = 0; op < 6; ++op) {
      const std::size_t a = rng.below(m.cols());
      const std::size_t b = rng.below(m.cols());
      const auto factor = static_cast<std::int64_t>(rng.below(7)) - 3;
      for (std::size_t i = 0; i < m.rows(); ++i) {
        switch (op % 3) {
          case 0:
            if (a != b) m(i, a) += m(i, b) * factor;
            break;
          case 1:
            m(i, a) *= factor == 0 ? std::int64_t{-2} : factor;
            break;
          default:
            std::swap(m(i, a), m(i, b));
        }
      }
    }
    const SpanForm after = column_span_form(m);
    EXPECT_EQ(after.rank, before.rank) << m;
    EXPECT_EQ(after.words, before.words) << m;
  }
}

TEST(SpanForm, BigIntFallbackGivesTheSameForm) {
  // Scaling columns by factors near 2^58 keeps every entry below 2^62, so
  // m still enters the int64 elimination, whose first products overflow;
  // scaling by 2^70 puts m itself past int64.  The span and so the form
  // stay the same, and it fits int64 words again.
  Xoshiro256 rng(9);
  const BigInt near = BigInt::pow2(58) + BigInt(3);
  const BigInt past = BigInt::pow2(70) - BigInt(1);
  int checked = 0;
  while (checked < 200) {
    const IntMatrix m = random_matrix(rng);
    const SpanForm small = column_span_form(m);
    if (small.rank < 2) continue;
    ++checked;
    for (const BigInt& factor : {near, past}) {
      IntMatrix big = m;
      for (std::size_t i = 0; i < big.rows(); ++i) {
        for (std::size_t j = 0; j < big.cols(); ++j) big(i, j) *= factor;
      }
      const SpanForm form = column_span_form(big);
      EXPECT_TRUE(form.fallback) << big;
      EXPECT_FALSE(form.wide.has_value()) << big;
      EXPECT_EQ(form.rank, small.rank) << big;
      EXPECT_EQ(form.words, small.words) << big;
    }
  }
}

TEST(SpanForm, WideFormsAndInt64Edges) {
  // (1, 2^70): the form is the column itself and needs BigInt entries.
  const IntMatrix wide{{1}, {BigInt::pow2(70)}};
  const SpanForm form = column_span_form(wide);
  EXPECT_TRUE(form.fallback);
  ASSERT_TRUE(form.wide.has_value());
  EXPECT_TRUE(form.words.empty());
  EXPECT_EQ(*form.wide, (IntMatrix{{1, BigInt::pow2(70)}}));
  expect_scaled_rref(wide, form);
  // (-2^63): the content 2^63 does not fit an int64, so the BigInt pass
  // finishes; the form (1) does fit.
  const IntMatrix min{{BigInt(std::numeric_limits<std::int64_t>::min())}};
  const SpanForm unit = column_span_form(min);
  EXPECT_TRUE(unit.fallback);
  EXPECT_EQ(unit.words, (std::vector<std::int64_t>{1}));
  // (-2^62, -2^62 + 1): the pivot is negative and the entries fit, so
  // the int64 pass fixes the sign itself.
  const std::int64_t big = std::int64_t{1} << 62;
  const IntMatrix negative{{BigInt(-big)}, {BigInt(-big + 1)}};
  const SpanForm signed_form = column_span_form(negative);
  EXPECT_FALSE(signed_form.fallback);
  EXPECT_EQ(signed_form.words, (std::vector<std::int64_t>{big, big - 1}));
  expect_scaled_rref(negative, signed_form);
}

/// m^T as int64 words, row-major; every entry of m must fit.
std::vector<std::int64_t> transpose_words(const IntMatrix& m) {
  std::vector<std::int64_t> out;
  for (std::size_t j = 0; j < m.cols(); ++j) {
    for (std::size_t i = 0; i < m.rows(); ++i) {
      out.push_back(m(i, j).to_int64());
    }
  }
  return out;
}

void expect_same_form(const SpanForm& got, const SpanForm& want) {
  EXPECT_EQ(got.rank, want.rank);
  EXPECT_EQ(got.dim, want.dim);
  EXPECT_EQ(got.words, want.words);
  EXPECT_EQ(got.wide, want.wide);
  EXPECT_EQ(got.fallback, want.fallback);
}

TEST(SpanForm, WordEntryMatchesTheIntMatrixEntryOnEveryCensusBlock) {
  // All 3^9 C blocks at (7, 2): A(C)^T written from C's digits, through
  // the word entry, gives the form of the BigInt matrix A(C).
  const ccmx::core::ConstructionParams p(7, 2);
  std::vector<std::int64_t> digits;
  std::vector<std::int64_t> at;
  for (std::uint64_t index = 0; index < 19683; ++index) {
    const IntMatrix c = ccmx::core::c_instance(p, index);
    digits.clear();
    for (const BigInt& v : c.data()) digits.push_back(v.to_int64());
    ccmx::core::a_transpose_words(p, digits, at);
    const IntMatrix a = ccmx::core::build_a(p, c);
    ASSERT_EQ(at, transpose_words(a)) << "C block " << index;
    expect_same_form(column_span_form(at, p.n() - 1, p.n()),
                     column_span_form(a));
    if (HasFailure()) break;
  }
}

TEST(SpanForm, WordEntryFallsBackLikeTheIntMatrixEntry) {
  // Entries near 2^61 fit int64, but the elimination's products do not:
  // both entries rerun on BigInt.  Two such columns in 3-space have a
  // form whose entries are 2 x 2 minors, past int64, so it is wide; one
  // scaled by 2^58 + 3 has a small form again.
  Xoshiro256 rng(4);
  int wide = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const IntMatrix m =
        IntMatrix::generate(3, 2, [&](std::size_t, std::size_t) {
          return BigInt(static_cast<std::int64_t>(rng() >> 3));
        });
    const SpanForm form = column_span_form(m);
    EXPECT_TRUE(form.fallback);
    wide += form.wide ? 1 : 0;
    expect_same_form(column_span_form(transpose_words(m), 2, 3), form);
  }
  EXPECT_GT(wide, 40);
  const IntMatrix small{{1, 2}, {-3, 5}, {4, 0}};
  const IntMatrix scaled =
      IntMatrix::generate(3, 2, [&](std::size_t i, std::size_t j) {
        return small(i, j) * (BigInt::pow2(58) + BigInt(3));
      });
  const SpanForm form = column_span_form(scaled);
  EXPECT_TRUE(form.fallback);
  EXPECT_FALSE(form.wide.has_value());
  EXPECT_EQ(form.words, column_span_form(small).words);
  expect_same_form(column_span_form(transpose_words(scaled), 2, 3), form);
}

}  // namespace
