#include "linalg/det.hpp"

#include <cmath>

#include "util/require.hpp"

namespace ccmx::la {

using num::BigInt;

BigInt det_bareiss(const IntMatrix& m) {
  CCMX_REQUIRE(m.is_square(), "determinant of a non-square matrix");
  const std::size_t n = m.rows();
  if (n == 0) return BigInt(1);
  IntMatrix a = m;
  BigInt prev(1);
  int sign = 1;
  for (std::size_t k = 0; k + 1 < n; ++k) {
    // Partial pivoting on the first nonzero entry of column k.
    std::size_t pivot = k;
    while (pivot < n && a(pivot, k).is_zero()) ++pivot;
    if (pivot == n) return BigInt(0);
    if (pivot != k) {
      a.swap_rows(pivot, k);
      sign = -sign;
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      for (std::size_t j = k + 1; j < n; ++j) {
        BigInt value = a(k, k) * a(i, j) - a(i, k) * a(k, j);
        a(i, j) = value.divide_exact(prev);
      }
      a(i, k) = BigInt(0);
    }
    prev = a(k, k);
  }
  BigInt result = a(n - 1, n - 1);
  if (sign < 0) result = -result;
  return result;
}

BigInt det_cofactor(const IntMatrix& m) {
  CCMX_REQUIRE(m.is_square(), "determinant of a non-square matrix");
  const std::size_t n = m.rows();
  CCMX_REQUIRE(n <= 10, "cofactor oracle limited to n <= 10");
  if (n == 0) return BigInt(1);
  if (n == 1) return m(0, 0);
  BigInt total(0);
  for (std::size_t j = 0; j < n; ++j) {
    if (m(0, j).is_zero()) continue;
    const BigInt sub = det_cofactor(m.minor_matrix(0, j));
    if (j % 2 == 0) {
      total += m(0, j) * sub;
    } else {
      total -= m(0, j) * sub;
    }
  }
  return total;
}

std::size_t hadamard_det_bits(std::size_t n, unsigned k) {
  // |det| <= (2^k * sqrt(n))^n  =>  bits <= n * (k + log2(n)/2) + 1.
  const double bits =
      static_cast<double>(n) *
          (static_cast<double>(k) +
           0.5 * std::log2(static_cast<double>(n == 0 ? 1 : n))) +
      1.0;
  return static_cast<std::size_t>(std::ceil(bits));
}

}  // namespace ccmx::la
