// Truth matrices (Section 2 of the paper).
//
// Fixing the partition turns a decision problem into a two-argument Boolean
// function; rows enumerate agent 0's share, columns agent 1's.  Yao's
// method lower-bounds communication by log2 of the minimum number of
// monochromatic submatrices needed to partition this matrix.  Rows are
// stored as packed bitsets, so GF(2) rank, ones censuses and rectangle
// searches run on whole words.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/require.hpp"

namespace ccmx::comm {

class TruthMatrix {
 public:
  TruthMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), words_per_row_((cols + 63) / 64),
        bits_(rows * words_per_row_, 0) {
    CCMX_REQUIRE(rows > 0 && cols > 0, "empty truth matrix");
  }

  /// Evaluates f(row_index, col_index) for every cell.  Row/column indices
  /// are the enumeration order of the corresponding agent's input share.
  [[nodiscard]] static TruthMatrix build(
      std::size_t rows, std::size_t cols,
      const std::function<bool(std::size_t, std::size_t)>& f);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] bool get(std::size_t r, std::size_t c) const {
    CCMX_ASSERT(r < rows_ && c < cols_);
    return (word(r, c / 64) >> (c % 64)) & 1u;
  }
  void set(std::size_t r, std::size_t c, bool value) {
    CCMX_ASSERT(r < rows_ && c < cols_);
    const std::uint64_t mask = std::uint64_t{1} << (c % 64);
    if (value) {
      word(r, c / 64) |= mask;
    } else {
      word(r, c / 64) &= ~mask;
    }
  }

  [[nodiscard]] std::size_t ones() const noexcept;
  [[nodiscard]] std::size_t zeros() const noexcept {
    return rows_ * cols_ - ones();
  }

  /// Rank over GF(2) (a valid deterministic-CC lower bound: any field works).
  [[nodiscard]] std::size_t rank_gf2() const;

  /// Row-submatrix restricted to the given rows and columns.
  [[nodiscard]] TruthMatrix submatrix(
      const std::vector<std::size_t>& row_idx,
      const std::vector<std::size_t>& col_idx) const;

  /// The entrywise complement (swaps the roles of 0- and 1-rectangles).
  [[nodiscard]] TruthMatrix complement() const;

  /// Raw packed row access for the rectangle search kernels.
  [[nodiscard]] const std::uint64_t* row_words(std::size_t r) const {
    return &bits_[r * words_per_row_];
  }
  [[nodiscard]] std::size_t words_per_row() const noexcept {
    return words_per_row_;
  }

 private:
  [[nodiscard]] std::uint64_t& word(std::size_t r, std::size_t w) {
    return bits_[r * words_per_row_ + w];
  }
  [[nodiscard]] const std::uint64_t& word(std::size_t r, std::size_t w) const {
    return bits_[r * words_per_row_ + w];
  }

  std::size_t rows_;
  std::size_t cols_;
  std::size_t words_per_row_;
  std::vector<std::uint64_t> bits_;
};

}  // namespace ccmx::comm
