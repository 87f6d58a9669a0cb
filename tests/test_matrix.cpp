// Matrix<T>: shape operations, blocks, permutations, products.
#include <gtest/gtest.h>

#include "linalg/convert.hpp"
#include "linalg/matrix.hpp"
#include "util/rng.hpp"

namespace {

using ccmx::la::IntMatrix;
using ccmx::la::Matrix;
using ccmx::num::BigInt;
using ccmx::util::Xoshiro256;

IntMatrix random_matrix(std::size_t r, std::size_t c, Xoshiro256& rng,
                        std::int64_t lo = -9, std::int64_t hi = 9) {
  return IntMatrix::generate(r, c, [&](std::size_t, std::size_t) {
    return BigInt(rng.range(lo, hi));
  });
}

TEST(Matrix, InitializerListAndAccess) {
  const Matrix<int> m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(0, 0), 1);
  EXPECT_EQ(m(1, 2), 6);
  EXPECT_THROW((void)m.at(2, 0), ccmx::util::contract_error);
  EXPECT_THROW((void)(Matrix<int>{{1, 2}, {3}}), ccmx::util::contract_error);
}

TEST(Matrix, IdentityAndTranspose) {
  const auto id = Matrix<int>::identity(3, 1);
  EXPECT_EQ(id.transpose(), id);
  const Matrix<int> m{{1, 2}, {3, 4}, {5, 6}};
  const Matrix<int> mt = m.transpose();
  EXPECT_EQ(mt.rows(), 2u);
  EXPECT_EQ(mt(0, 2), 5);
  EXPECT_EQ(mt.transpose(), m);
}

TEST(Matrix, RowColExtraction) {
  const Matrix<int> m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.row(1), (std::vector<int>{4, 5, 6}));
  EXPECT_EQ(m.col(2), (std::vector<int>{3, 6}));
}

TEST(Matrix, SwapRowsAndCols) {
  Matrix<int> m{{1, 2}, {3, 4}};
  m.swap_rows(0, 1);
  EXPECT_EQ(m, (Matrix<int>{{3, 4}, {1, 2}}));
  m.swap_cols(0, 1);
  EXPECT_EQ(m, (Matrix<int>{{4, 3}, {2, 1}}));
  m.swap_rows(0, 0);  // no-op
  EXPECT_EQ(m(0, 0), 4);
}

TEST(Matrix, BlockAndSetBlock) {
  Matrix<int> m(4, 4, 0);
  m.set_block(1, 2, Matrix<int>{{7, 8}, {9, 10}});
  EXPECT_EQ(m(1, 2), 7);
  EXPECT_EQ(m(2, 3), 10);
  EXPECT_EQ(m.block(1, 2, 2, 2), (Matrix<int>{{7, 8}, {9, 10}}));
  EXPECT_THROW((void)m.block(3, 3, 2, 2), ccmx::util::contract_error);
}

TEST(Matrix, MinorMatrix) {
  const Matrix<int> m{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  EXPECT_EQ(m.minor_matrix(1, 1), (Matrix<int>{{1, 3}, {7, 9}}));
  EXPECT_EQ(m.minor_matrix(0, 0), (Matrix<int>{{5, 6}, {8, 9}}));
}

TEST(Matrix, Permutations) {
  const Matrix<int> m{{1, 2}, {3, 4}};
  EXPECT_EQ(m.permute_rows({1, 0}), (Matrix<int>{{3, 4}, {1, 2}}));
  EXPECT_EQ(m.permute_cols({1, 0}), (Matrix<int>{{2, 1}, {4, 3}}));
  EXPECT_EQ(m.permute_rows({0, 1}), m);
}

TEST(Matrix, Augment) {
  const Matrix<int> a{{1}, {2}};
  const Matrix<int> b{{3, 4}, {5, 6}};
  EXPECT_EQ(a.augment(b), (Matrix<int>{{1, 3, 4}, {2, 5, 6}}));
}

TEST(Matrix, AddSub) {
  const Matrix<int> a{{1, 2}, {3, 4}};
  const Matrix<int> b{{5, 6}, {7, 8}};
  EXPECT_EQ(a + b, (Matrix<int>{{6, 8}, {10, 12}}));
  EXPECT_EQ(b - a, (Matrix<int>{{4, 4}, {4, 4}}));
}

TEST(Matrix, ProductKnown) {
  const Matrix<int> a{{1, 2}, {3, 4}};
  const Matrix<int> b{{5, 6}, {7, 8}};
  EXPECT_EQ(a * b, (Matrix<int>{{19, 22}, {43, 50}}));
  const auto id = Matrix<int>::identity(2, 1);
  EXPECT_EQ(a * id, a);
  EXPECT_EQ(id * a, a);
}

TEST(Matrix, MatVec) {
  const Matrix<int> a{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(multiply(a, std::vector<int>{1, 0, -1}),
            (std::vector<int>{-2, -2}));
}

TEST(MatrixConvert, ReduceMod) {
  const IntMatrix m{{BigInt(-1), BigInt(7)}, {BigInt(12), BigInt(0)}};
  const auto reduced = ccmx::la::reduce_mod(m, 5);
  EXPECT_EQ(reduced(0, 0), 4u);
  EXPECT_EQ(reduced(0, 1), 2u);
  EXPECT_EQ(reduced(1, 0), 2u);
  EXPECT_EQ(reduced(1, 1), 0u);
}

TEST(MatrixConvert, ToRationalPreservesValues) {
  Xoshiro256 rng(5);
  const IntMatrix m = random_matrix(3, 3, rng);
  const auto r = ccmx::la::to_rational(m);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(r(i, j).num(), m(i, j));
      EXPECT_TRUE(r(i, j).is_integer());
    }
  }
}

}  // namespace
