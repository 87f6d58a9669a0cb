#include "linalg/fp.hpp"

#include "util/require.hpp"

namespace ccmx::la {

namespace {

struct Echelon {
  std::size_t rank = 0;
  std::uint64_t det = 1;        // meaningful for square inputs only
  bool last_col_pivot = false;  // the last column holds a pivot
};

/// In-place elimination to row echelon form.
Echelon echelon(ModMatrix& a, const num::Zp& field) {
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();
  Echelon out;
  for (std::size_t col = 0; col < cols && out.rank < rows; ++col) {
    const std::size_t row = out.rank;
    std::size_t pivot = row;
    while (pivot < rows && a(pivot, col) == 0) ++pivot;
    if (pivot == rows) {
      out.det = 0;  // a zero column means a zero pivot for square inputs
      continue;
    }
    if (pivot != row) {
      a.swap_rows(pivot, row);
      out.det = field.neg(out.det);  // row swap flips the sign
    }
    const std::uint64_t inv = field.inv(a(row, col));
    out.det = field.mul(a(row, col), out.det);
    for (std::size_t i = row + 1; i < rows; ++i) {
      if (a(i, col) == 0) continue;
      subtract_row_multiple(a, i, row, field.mul(a(i, col), inv), col, field);
    }
    out.last_col_pivot = col + 1 == cols;
    ++out.rank;
  }
  return out;
}

}  // namespace

void subtract_row_multiple(ModMatrix& m, std::size_t dst, std::size_t src,
                           std::uint64_t factor, std::size_t from,
                           const num::Zp& field) {
  CCMX_ASSERT(dst < m.rows() && src < m.rows() && dst != src);
  const std::size_t cols = m.cols();
  if (from >= cols) return;
  // A local copy: stores through `out` cannot alias it, so p stays in a
  // register across the loop.
  const num::Zp f = field;
  const num::Zp::Fixed fixed = f.fixed(factor);
  std::uint64_t* out = &m(dst, 0);
  const std::uint64_t* in = &m(src, 0);
  for (std::size_t j = from; j < cols; ++j) {
    out[j] = f.sub(out[j], f.mul(in[j], fixed));
  }
}

std::uint64_t det_mod_p(ModMatrix m, std::uint64_t p) {
  const num::Zp field(p);
  CCMX_REQUIRE(m.is_square(), "determinant of a non-square matrix");
  const Echelon e = echelon(m, field);
  return e.rank == m.rows() ? e.det : 0;
}

std::size_t rank_mod_p(ModMatrix m, std::uint64_t p) {
  const num::Zp field(p);
  return echelon(m, field).rank;
}

bool solvable_mod_p(ModMatrix m, std::uint64_t p) {
  const num::Zp field(p);
  return !echelon(m, field).last_col_pivot;
}

std::optional<std::vector<std::uint64_t>> solve_mod_p(
    ModMatrix m, std::vector<std::uint64_t> b, std::uint64_t p) {
  const num::Zp field(p);
  CCMX_REQUIRE(b.size() == m.rows(), "solve shape mismatch");
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  ModMatrix augmented(rows, cols + 1);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      augmented(i, j) = field.reduce(m(i, j));
    }
    augmented(i, cols) = field.reduce(b[i]);
  }
  // Full Gauss-Jordan on the augmented system.
  std::vector<std::size_t> pivot_cols;
  std::size_t row = 0;
  for (std::size_t col = 0; col < cols + 1 && row < rows; ++col) {
    std::size_t pivot = row;
    while (pivot < rows && augmented(pivot, col) == 0) ++pivot;
    if (pivot == rows) continue;
    augmented.swap_rows(pivot, row);
    const num::Zp::Fixed inv = field.fixed(field.inv(augmented(row, col)));
    for (std::size_t j = col; j <= cols; ++j) {
      augmented(row, j) = field.mul(augmented(row, j), inv);
    }
    for (std::size_t i = 0; i < rows; ++i) {
      if (i == row || augmented(i, col) == 0) continue;
      subtract_row_multiple(augmented, i, row, augmented(i, col), col, field);
    }
    pivot_cols.push_back(col);
    ++row;
  }
  for (const std::size_t c : pivot_cols) {
    if (c == cols) return std::nullopt;  // pivot in the RHS column
  }
  std::vector<std::uint64_t> x(cols, 0);
  for (std::size_t r = 0; r < pivot_cols.size(); ++r) {
    x[pivot_cols[r]] = augmented(r, cols);
  }
  return x;
}

ModMatrix multiply_mod_p(const ModMatrix& a, const ModMatrix& b,
                         std::uint64_t p) {
  const num::Zp field(p);
  CCMX_REQUIRE(a.cols() == b.rows(), "product shape mismatch");
  ModMatrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const std::uint64_t aik = field.reduce(a(i, k));
      if (aik == 0) continue;
      const num::Zp::Fixed w = field.fixed(aik);
      for (std::size_t j = 0; j < b.cols(); ++j) {
        out(i, j) = field.add(out(i, j), field.mul(b(k, j), w));
      }
    }
  }
  return out;
}

std::vector<std::uint64_t> multiply_mod_p(const ModMatrix& a,
                                          const std::vector<std::uint64_t>& x,
                                          std::uint64_t p) {
  const num::Zp field(p);
  CCMX_REQUIRE(a.cols() == x.size(), "matvec shape mismatch");
  std::vector<num::Zp::Fixed> w(x.size());
  for (std::size_t j = 0; j < x.size(); ++j) {
    w[j] = field.fixed(field.reduce(x[j]));
  }
  std::vector<std::uint64_t> out(a.rows(), 0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      out[i] = field.add(out[i], field.mul(a(i, j), w[j]));
    }
  }
  return out;
}

}  // namespace ccmx::la
