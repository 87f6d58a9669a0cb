#include "linalg/fp.hpp"

#include <utility>

#include "util/require.hpp"

namespace ccmx::la {

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

Echelon echelon(ModMatrix& a, const num::Zp& field) {
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();
  Echelon out;
  out.row_order.resize(rows);
  for (std::size_t i = 0; i < rows; ++i) out.row_order[i] = i;
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
      std::swap(out.row_order[pivot], out.row_order[row]);
      out.det = field.neg(out.det);  // row swap flips the sign
    }
    const std::uint64_t inv = field.inv(a(row, col));
    out.det = field.mul(a(row, col), out.det);
    for (std::size_t i = row + 1; i < rows; ++i) {
      if (a(i, col) == 0) continue;
      // The multiplier takes the place of the entry it cancels.
      const std::uint64_t factor = field.mul(a(i, col), inv);
      a(i, col) = factor;
      subtract_row_multiple(a, i, row, factor, col + 1, field);
      out.updates += cols - col - 1;
    }
    out.pivot_cols.push_back(col);
    ++out.rank;
  }
  return out;
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
  const Echelon e = echelon(m, field);
  return e.rank == 0 || e.pivot_cols.back() + 1 != m.cols();
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

}  // namespace ccmx::la
