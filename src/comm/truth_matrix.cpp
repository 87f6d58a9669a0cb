#include "comm/truth_matrix.hpp"

#include <algorithm>

#include "util/parallel.hpp"

namespace ccmx::comm {

TruthMatrix TruthMatrix::build(
    std::size_t rows, std::size_t cols,
    const std::function<bool(std::size_t, std::size_t)>& f) {
  TruthMatrix m(rows, cols);
  // Rows are independent: shard the (often expensive) evaluations.
  util::parallel_for(0, rows, [&](std::size_t r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (f(r, c)) m.set(r, c, true);
    }
  });
  return m;
}

std::size_t TruthMatrix::ones() const noexcept {
  std::size_t total = 0;
  for (const std::uint64_t w : bits_) {
    total += static_cast<std::size_t>(__builtin_popcountll(w));
  }
  return total;
}

std::size_t TruthMatrix::rank_gf2() const {
  // Word-parallel Gaussian elimination on a copy of the packed rows.
  std::vector<std::uint64_t> work = bits_;
  const std::size_t wpr = words_per_row_;
  std::size_t rank = 0;
  for (std::size_t c = 0; c < cols_ && rank < rows_; ++c) {
    const std::size_t cw = c / 64;
    const std::uint64_t cm = std::uint64_t{1} << (c % 64);
    std::size_t pivot = rank;
    while (pivot < rows_ && (work[pivot * wpr + cw] & cm) == 0) ++pivot;
    if (pivot == rows_) continue;
    if (pivot != rank) {
      for (std::size_t w = 0; w < wpr; ++w) {
        std::swap(work[pivot * wpr + w], work[rank * wpr + w]);
      }
    }
    for (std::size_t r = rank + 1; r < rows_; ++r) {
      if ((work[r * wpr + cw] & cm) != 0) {
        for (std::size_t w = 0; w < wpr; ++w) {
          work[r * wpr + w] ^= work[rank * wpr + w];
        }
      }
    }
    ++rank;
  }
  return rank;
}

TruthMatrix TruthMatrix::submatrix(const std::vector<std::size_t>& row_idx,
                                   const std::vector<std::size_t>& col_idx) const {
  CCMX_REQUIRE(!row_idx.empty() && !col_idx.empty(), "empty submatrix");
  TruthMatrix out(row_idx.size(), col_idx.size());
  for (std::size_t r = 0; r < row_idx.size(); ++r) {
    CCMX_REQUIRE(row_idx[r] < rows_, "row index out of range");
    for (std::size_t c = 0; c < col_idx.size(); ++c) {
      CCMX_REQUIRE(col_idx[c] < cols_, "column index out of range");
      if (get(row_idx[r], col_idx[c])) out.set(r, c, true);
    }
  }
  return out;
}

TruthMatrix TruthMatrix::complement() const {
  TruthMatrix out(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t w = 0; w < words_per_row_; ++w) {
      out.bits_[r * words_per_row_ + w] = ~bits_[r * words_per_row_ + w];
    }
    // Clear the padding bits past cols_.
    const std::size_t tail = cols_ % 64;
    if (tail != 0) {
      out.bits_[r * words_per_row_ + words_per_row_ - 1] &=
          (std::uint64_t{1} << tail) - 1;
    }
  }
  return out;
}

}  // namespace ccmx::comm
