#include "linalg/rref.hpp"

#include "util/require.hpp"

namespace ccmx::la {

using num::Rational;

RrefResult rref(const RatMatrix& m) {
  RrefResult out;
  out.rref = m;
  RatMatrix& a = out.rref;
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();
  std::size_t lead = 0;
  for (std::size_t c = 0; c < cols && lead < rows; ++c) {
    // Find a pivot in column c at or below row `lead`.
    std::size_t pivot = lead;
    while (pivot < rows && a(pivot, c).is_zero()) ++pivot;
    if (pivot == rows) continue;
    a.swap_rows(pivot, lead);
    const Rational inv = a(lead, c).reciprocal();
    for (std::size_t j = c; j < cols; ++j) a(lead, j) *= inv;
    for (std::size_t i = 0; i < rows; ++i) {
      if (i == lead || a(i, c).is_zero()) continue;
      const Rational factor = a(i, c);
      for (std::size_t j = c; j < cols; ++j) {
        a(i, j) -= factor * a(lead, j);
      }
    }
    out.pivot_cols.push_back(c);
    ++lead;
  }
  return out;
}

std::size_t rank(const RatMatrix& m) { return rref(m).rank(); }

std::vector<std::vector<Rational>> nullspace(const RatMatrix& m) {
  const RrefResult result = rref(m);
  const std::size_t cols = m.cols();
  std::vector<bool> is_pivot(cols, false);
  for (const std::size_t c : result.pivot_cols) is_pivot[c] = true;

  std::vector<std::vector<Rational>> basis;
  for (std::size_t free_col = 0; free_col < cols; ++free_col) {
    if (is_pivot[free_col]) continue;
    std::vector<Rational> v(cols, Rational(0));
    v[free_col] = Rational(1);
    // Back-substitute: pivot row r has its pivot at pivot_cols[r].
    for (std::size_t r = 0; r < result.pivot_cols.size(); ++r) {
      v[result.pivot_cols[r]] = -result.rref(r, free_col);
    }
    basis.push_back(std::move(v));
  }
  return basis;
}

std::optional<std::vector<Rational>> solve(const RatMatrix& m,
                                           const std::vector<Rational>& b) {
  CCMX_REQUIRE(b.size() == m.rows(), "solve shape mismatch");
  RatMatrix augmented(m.rows(), m.cols() + 1);
  augmented.set_block(0, 0, m);
  for (std::size_t i = 0; i < m.rows(); ++i) augmented(i, m.cols()) = b[i];
  const RrefResult result = rref(augmented);
  // Inconsistent iff some pivot lands in the augmented column.
  for (const std::size_t c : result.pivot_cols) {
    if (c == m.cols()) return std::nullopt;
  }
  std::vector<Rational> x(m.cols(), Rational(0));
  for (std::size_t r = 0; r < result.pivot_cols.size(); ++r) {
    x[result.pivot_cols[r]] = result.rref(r, m.cols());
  }
  return x;
}

bool in_column_span(const RatMatrix& m, const std::vector<Rational>& v) {
  return solve(m, v).has_value();
}

RatMatrix column_span_canonical(const RatMatrix& m) {
  const RrefResult result = rref(m.transpose());
  return result.rref.block(0, 0, result.rank(), m.rows());
}

bool same_column_span(const RatMatrix& a, const RatMatrix& b) {
  CCMX_REQUIRE(a.rows() == b.rows(), "spans live in different ambient spaces");
  return column_span_canonical(a) == column_span_canonical(b);
}

std::size_t span_intersection_dim(const RatMatrix& a, const RatMatrix& b) {
  CCMX_REQUIRE(a.rows() == b.rows(), "spans live in different ambient spaces");
  const std::size_t ra = rank(a);
  const std::size_t rb = rank(b);
  const std::size_t runion = rank(a.augment(b));
  return ra + rb - runion;
}

}  // namespace ccmx::la
