#include "core/reductions.hpp"

#include "linalg/det.hpp"
#include "linalg/hnf.hpp"
#include "linalg/lup.hpp"
#include "linalg/qr.hpp"
#include "linalg/rref.hpp"
#include "linalg/svd.hpp"
#include "util/require.hpp"

namespace ccmx::core {

using num::BigInt;

bool singular_via_determinant(const la::IntMatrix& m) {
  return la::det_bareiss(m).is_zero();
}

bool singular_via_rank(const la::IntMatrix& m) {
  CCMX_REQUIRE(m.is_square(), "singularity of a non-square matrix");
  return la::rank(m) < m.rows();
}

bool singular_via_qr(const la::IntMatrix& m) {
  return la::qr_decompose(la::to_rational(m)).singular();
}

bool singular_via_svd(const la::IntMatrix& m) {
  return la::svd_structure(la::to_rational(m)).singular();
}

bool singular_via_lup(const la::IntMatrix& m) {
  return la::lup_decompose(la::to_rational(m)).singular();
}

bool singular_via_range(const la::IntMatrix& m) {
  CCMX_REQUIRE(m.is_square(), "singularity of a non-square matrix");
  return la::column_span_canonical(la::to_rational(m)).rows() < m.rows();
}

bool singular_via_hermite(const la::IntMatrix& m) {
  return la::singular_via_hnf(m);
}

bool singular_via_smith(const la::IntMatrix& m) {
  return la::singular_via_snf(m);
}

bool solvable(const la::IntMatrix& a, const std::vector<BigInt>& b) {
  CCMX_REQUIRE(b.size() == a.rows(), "solvable shape mismatch");
  la::IntMatrix augmented(a.rows(), a.cols() + 1);
  augmented.set_block(0, 0, a);
  for (std::size_t i = 0; i < a.rows(); ++i) augmented(i, a.cols()) = b[i];
  return la::rank(a) == la::rank(augmented);
}

SolvabilityInstance corollary13_instance(const la::IntMatrix& m) {
  CCMX_REQUIRE(m.is_square(), "corollary 1.3 needs a square matrix");
  SolvabilityInstance instance;
  instance.m_prime = m;
  instance.b.reserve(m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    instance.b.push_back(m(i, 0));
    instance.m_prime(i, 0) = BigInt(0);
  }
  return instance;
}

la::IntMatrix linwu_matrix(const la::IntMatrix& a, const la::IntMatrix& b,
                           const la::IntMatrix& c) {
  const std::size_t n = a.rows();
  CCMX_REQUIRE(a.is_square() && b.is_square() && c.is_square() &&
                   b.rows() == n && c.rows() == n,
               "Lin-Wu reduction needs three n x n matrices");
  la::IntMatrix m(2 * n, 2 * n);
  m.set_block(0, 0, la::IntMatrix::identity(n, BigInt(1)));
  m.set_block(0, n, b);
  m.set_block(n, 0, a);
  m.set_block(n, n, c);
  return m;
}

bool product_equals_via_rank(const la::IntMatrix& a, const la::IntMatrix& b,
                             const la::IntMatrix& c) {
  const la::IntMatrix m = linwu_matrix(a, b, c);
  return la::rank(m) == a.rows();
}

std::size_t padded_half_dimension(std::size_t m_rows) {
  std::size_t n = (m_rows + 1) / 2;
  if (n % 2 == 0) ++n;
  if (n < 3) n = 3;
  return n;
}

la::IntMatrix pad_to_odd_2n(const la::IntMatrix& m) {
  CCMX_REQUIRE(m.is_square(), "padding needs a square matrix");
  const std::size_t n = padded_half_dimension(m.rows());
  const std::size_t size = 2 * n;
  la::IntMatrix padded(size, size);
  padded.set_block(0, 0, m);
  for (std::size_t i = m.rows(); i < size; ++i) padded(i, i) = BigInt(1);
  return padded;
}

bool union_spans_space(const la::IntMatrix& g1, const la::IntMatrix& g2) {
  CCMX_REQUIRE(g1.rows() == g2.rows(), "generators in different spaces");
  return la::rank(g1.augment(g2)) == g1.rows();
}

bool singular_via_span_problem(const la::IntMatrix& m) {
  CCMX_REQUIRE(m.is_square() && m.cols() % 2 == 0,
               "span reduction needs an even-dimensional square matrix");
  const std::size_t half = m.cols() / 2;
  const la::IntMatrix left = m.block(0, 0, m.rows(), half);
  const la::IntMatrix right = m.block(0, half, m.rows(), half);
  return !union_spans_space(left, right);
}

}  // namespace ccmx::core
