// Dense matrices with value semantics, generic over the entry ring.
//
// Instantiated with num::BigInt (exact integer work: Bareiss, the paper's
// hard instances), num::Rational (RREF / LUP / QR / characteristic
// polynomials) and std::uint64_t (mod-p protocol arithmetic).
#pragma once

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "util/require.hpp"

namespace ccmx::la {

template <class T>
class Matrix {
 public:
  Matrix() = default;

  Matrix(std::size_t rows, std::size_t cols, const T& fill = T{})
      : rows_(rows), cols_(cols), data_(checked_size(rows, cols), fill) {}

  /// Row-major nested initializer list: Matrix<int>{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<T>> init) {
    rows_ = init.size();
    cols_ = rows_ == 0 ? 0 : init.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& row : init) {
      CCMX_REQUIRE(row.size() == cols_, "ragged initializer");
      for (const T& value : row) data_.push_back(value);
    }
  }

  [[nodiscard]] static Matrix identity(std::size_t n, const T& one = T{1}) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = one;
    return m;
  }

  /// Builds an r x c matrix from a generator f(i, j).
  [[nodiscard]] static Matrix generate(
      std::size_t rows, std::size_t cols,
      const std::function<T(std::size_t, std::size_t)>& f) {
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) m(i, j) = f(i, j);
    }
    return m;
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool is_square() const noexcept { return rows_ == cols_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] T& operator()(std::size_t i, std::size_t j) {
    CCMX_ASSERT(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }
  [[nodiscard]] const T& operator()(std::size_t i, std::size_t j) const {
    CCMX_ASSERT(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }
  /// Bounds-checked access.
  [[nodiscard]] const T& at(std::size_t i, std::size_t j) const {
    CCMX_REQUIRE(i < rows_ && j < cols_, "matrix index out of range");
    return data_[i * cols_ + j];
  }
  T& at(std::size_t i, std::size_t j) {
    CCMX_REQUIRE(i < rows_ && j < cols_, "matrix index out of range");
    return data_[i * cols_ + j];
  }

  [[nodiscard]] const std::vector<T>& data() const noexcept { return data_; }

  [[nodiscard]] Matrix transpose() const {
    Matrix out(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i) {
      for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
    }
    return out;
  }

  [[nodiscard]] std::vector<T> row(std::size_t i) const {
    CCMX_REQUIRE(i < rows_, "row index out of range");
    return std::vector<T>(data_.begin() + static_cast<std::ptrdiff_t>(i * cols_),
                          data_.begin() +
                              static_cast<std::ptrdiff_t>((i + 1) * cols_));
  }

  [[nodiscard]] std::vector<T> col(std::size_t j) const {
    CCMX_REQUIRE(j < cols_, "column index out of range");
    std::vector<T> out;
    out.reserve(rows_);
    for (std::size_t i = 0; i < rows_; ++i) out.push_back((*this)(i, j));
    return out;
  }

  void swap_rows(std::size_t a, std::size_t b) {
    CCMX_REQUIRE(a < rows_ && b < rows_, "row index out of range");
    if (a == b) return;
    for (std::size_t j = 0; j < cols_; ++j) {
      std::swap((*this)(a, j), (*this)(b, j));
    }
  }

  void swap_cols(std::size_t a, std::size_t b) {
    CCMX_REQUIRE(a < cols_ && b < cols_, "column index out of range");
    if (a == b) return;
    for (std::size_t i = 0; i < rows_; ++i) {
      std::swap((*this)(i, a), (*this)(i, b));
    }
  }

  /// Copy of the block with row indices [r0, r0+h) and columns [c0, c0+w).
  [[nodiscard]] Matrix block(std::size_t r0, std::size_t c0, std::size_t h,
                             std::size_t w) const {
    CCMX_REQUIRE(r0 + h <= rows_ && c0 + w <= cols_, "block out of range");
    Matrix out(h, w);
    for (std::size_t i = 0; i < h; ++i) {
      for (std::size_t j = 0; j < w; ++j) out(i, j) = (*this)(r0 + i, c0 + j);
    }
    return out;
  }

  /// Writes `part` into this matrix at offset (r0, c0).
  void set_block(std::size_t r0, std::size_t c0, const Matrix& part) {
    CCMX_REQUIRE(r0 + part.rows() <= rows_ && c0 + part.cols() <= cols_,
                 "set_block out of range");
    for (std::size_t i = 0; i < part.rows(); ++i) {
      for (std::size_t j = 0; j < part.cols(); ++j) {
        (*this)(r0 + i, c0 + j) = part(i, j);
      }
    }
  }

  /// Copy with row `i` and column `j` removed (cofactor minors).
  [[nodiscard]] Matrix minor_matrix(std::size_t i, std::size_t j) const {
    CCMX_REQUIRE(i < rows_ && j < cols_, "minor index out of range");
    Matrix out(rows_ - 1, cols_ - 1);
    for (std::size_t r = 0, ro = 0; r < rows_; ++r) {
      if (r == i) continue;
      for (std::size_t c = 0, co = 0; c < cols_; ++c) {
        if (c == j) continue;
        out(ro, co) = (*this)(r, c);
        ++co;
      }
      ++ro;
    }
    return out;
  }

  /// Reorders rows by `perm` (output row i = input row perm[i]).
  [[nodiscard]] Matrix permute_rows(const std::vector<std::size_t>& perm) const {
    CCMX_REQUIRE(perm.size() == rows_, "permutation arity mismatch");
    Matrix out(rows_, cols_);
    for (std::size_t i = 0; i < rows_; ++i) {
      CCMX_REQUIRE(perm[i] < rows_, "permutation index out of range");
      for (std::size_t j = 0; j < cols_; ++j) out(i, j) = (*this)(perm[i], j);
    }
    return out;
  }

  [[nodiscard]] Matrix permute_cols(const std::vector<std::size_t>& perm) const {
    CCMX_REQUIRE(perm.size() == cols_, "permutation arity mismatch");
    Matrix out(rows_, cols_);
    for (std::size_t j = 0; j < cols_; ++j) {
      CCMX_REQUIRE(perm[j] < cols_, "permutation index out of range");
      for (std::size_t i = 0; i < rows_; ++i) out(i, j) = (*this)(i, perm[j]);
    }
    return out;
  }

  /// [this | rhs] horizontal concatenation.
  [[nodiscard]] Matrix augment(const Matrix& rhs) const {
    CCMX_REQUIRE(rows_ == rhs.rows_, "augment with mismatched rows");
    Matrix out(rows_, cols_ + rhs.cols_);
    out.set_block(0, 0, *this);
    out.set_block(0, cols_, rhs);
    return out;
  }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

  Matrix& operator+=(const Matrix& rhs) {
    CCMX_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_, "shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
    return *this;
  }
  Matrix& operator-=(const Matrix& rhs) {
    CCMX_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_, "shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
    return *this;
  }
  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }

  [[nodiscard]] std::string to_string() const {
    std::ostringstream os;
    for (std::size_t i = 0; i < rows_; ++i) {
      os << (i == 0 ? "[" : " ");
      for (std::size_t j = 0; j < cols_; ++j) {
        os << (*this)(i, j);
        if (j + 1 < cols_) os << ' ';
      }
      os << (i + 1 == rows_ ? "]" : "\n");
    }
    return os.str();
  }

 private:
  /// rows * cols.  Throws contract_error when the product overflows
  /// size_t, which would otherwise wrap to a short buffer behind large
  /// dimensions.
  static std::size_t checked_size(std::size_t rows, std::size_t cols) {
    std::size_t size = 0;
    CCMX_REQUIRE(!__builtin_mul_overflow(rows, cols, &size),
                 "matrix dimensions overflow size_t");
    return size;
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

/// Naive cubic product (reference implementation).
template <class T>
[[nodiscard]] Matrix<T> multiply_naive(const Matrix<T>& a, const Matrix<T>& b) {
  CCMX_REQUIRE(a.cols() == b.rows(), "product shape mismatch");
  Matrix<T> out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const T& aik = a(i, k);
      for (std::size_t j = 0; j < b.cols(); ++j) {
        out(i, j) += aik * b(k, j);
      }
    }
  }
  return out;
}

/// Cache-blocked product; identical results, better locality for large T=u64.
template <class T>
[[nodiscard]] Matrix<T> multiply_blocked(const Matrix<T>& a,
                                         const Matrix<T>& b,
                                         std::size_t block = 32) {
  CCMX_REQUIRE(a.cols() == b.rows(), "product shape mismatch");
  CCMX_REQUIRE(block > 0, "block size must be positive");
  Matrix<T> out(a.rows(), b.cols());
  for (std::size_t ii = 0; ii < a.rows(); ii += block) {
    const std::size_t imax = std::min(a.rows(), ii + block);
    for (std::size_t kk = 0; kk < a.cols(); kk += block) {
      const std::size_t kmax = std::min(a.cols(), kk + block);
      for (std::size_t jj = 0; jj < b.cols(); jj += block) {
        const std::size_t jmax = std::min(b.cols(), jj + block);
        for (std::size_t i = ii; i < imax; ++i) {
          for (std::size_t k = kk; k < kmax; ++k) {
            const T& aik = a(i, k);
            for (std::size_t j = jj; j < jmax; ++j) {
              out(i, j) += aik * b(k, j);
            }
          }
        }
      }
    }
  }
  return out;
}

template <class T>
[[nodiscard]] Matrix<T> operator*(const Matrix<T>& a, const Matrix<T>& b) {
  return multiply_naive(a, b);
}

/// Matrix-vector product.
template <class T>
[[nodiscard]] std::vector<T> multiply(const Matrix<T>& a,
                                      const std::vector<T>& x) {
  CCMX_REQUIRE(a.cols() == x.size(), "matvec shape mismatch");
  std::vector<T> out(a.rows(), T{});
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      out[i] += a(i, j) * x[j];
    }
  }
  return out;
}

/// Entrywise map between entry types (e.g. BigInt -> Rational).
template <class To, class From, class Fn>
[[nodiscard]] Matrix<To> map_matrix(const Matrix<From>& m, Fn&& fn) {
  Matrix<To> out(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) out(i, j) = fn(m(i, j));
  }
  return out;
}

template <class T>
std::ostream& operator<<(std::ostream& os, const Matrix<T>& m) {
  return os << m.to_string();
}

}  // namespace ccmx::la
