#include "comm/partition.hpp"

#include <algorithm>

#include "bigint/modular.hpp"
#include "util/require.hpp"

namespace ccmx::comm {

MatrixBitLayout::MatrixBitLayout(std::size_t rows, std::size_t cols,
                                 unsigned bits_per_entry)
    : rows_(rows), cols_(cols), k_(bits_per_entry) {
  CCMX_REQUIRE(rows > 0 && cols > 0, "empty layout");
  CCMX_REQUIRE(bits_per_entry >= 1 && bits_per_entry <= num::kZpBits,
               "entry width out of range");
}

std::size_t MatrixBitLayout::bit_index(std::size_t i, std::size_t j,
                                       unsigned b) const {
  CCMX_REQUIRE(i < rows_ && j < cols_ && b < k_, "bit coordinate out of range");
  return (i * cols_ + j) * k_ + b;
}

// Entry (i, j) occupies the k consecutive bits from bit_index(i, j, 0), and
// entries follow each other in row-major order, so encode appends and decode
// gathers one whole entry at a time.

BitVec MatrixBitLayout::encode(const la::IntMatrix& m) const {
  CCMX_REQUIRE(m.rows() == rows_ && m.cols() == cols_, "layout shape mismatch");
  BitVec bits(0);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      const num::BigInt& entry = m(i, j);
      CCMX_REQUIRE(!entry.is_negative() && entry.bit_length() <= k_,
                   "entry does not fit the layout's k bits");
      bits.append_uint(static_cast<std::uint64_t>(entry.to_int64()), k_);
    }
  }
  return bits;
}

la::IntMatrix MatrixBitLayout::decode(const BitVec& bits) const {
  CCMX_REQUIRE(bits.size() == total_bits(), "layout size mismatch");
  la::IntMatrix m(rows_, cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      m(i, j) = num::BigInt(
          static_cast<std::int64_t>(bits.read_uint(bit_index(i, j, 0), k_)));
    }
  }
  return m;
}

Partition::Partition(std::size_t total_bits)
    : owner_(total_bits, Agent::kZero) {}

std::size_t Partition::bits_of(Agent agent) const noexcept {
  return static_cast<std::size_t>(
      std::count(owner_.begin(), owner_.end(), agent));
}

std::vector<std::size_t> Partition::indices_of(Agent agent) const {
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < owner_.size(); ++i) {
    if (owner_[i] == agent) indices.push_back(i);
  }
  return indices;
}

bool Partition::is_even() const noexcept {
  const std::size_t zero = bits_of(Agent::kZero);
  const std::size_t one = owner_.size() - zero;
  return zero > one ? zero - one <= 1 : one - zero <= 1;
}

Partition Partition::pi0(const MatrixBitLayout& layout) {
  CCMX_REQUIRE(layout.cols() % 2 == 0, "pi0 needs an even number of columns");
  Partition pi(layout.total_bits());
  for (std::size_t i = 0; i < layout.rows(); ++i) {
    for (std::size_t j = 0; j < layout.cols(); ++j) {
      const Agent who = j < layout.cols() / 2 ? Agent::kZero : Agent::kOne;
      for (unsigned b = 0; b < layout.entry_bits(); ++b) {
        pi.assign(layout.bit_index(i, j, b), who);
      }
    }
  }
  return pi;
}

Partition Partition::random_even(std::size_t total_bits,
                                 util::Xoshiro256& rng) {
  Partition pi(total_bits);
  for (std::size_t i = 0; i < total_bits; ++i) pi.assign(i, Agent::kOne);
  const std::vector<std::size_t> zeros =
      util::sample_without_replacement(total_bits, total_bits / 2, rng);
  for (const std::size_t i : zeros) pi.assign(i, Agent::kZero);
  return pi;
}

Partition Partition::permuted(const MatrixBitLayout& layout,
                              const std::vector<std::size_t>& row_perm,
                              const std::vector<std::size_t>& col_perm) const {
  CCMX_REQUIRE(owner_.size() == layout.total_bits(), "layout size mismatch");
  CCMX_REQUIRE(row_perm.size() == layout.rows() &&
                   col_perm.size() == layout.cols(),
               "permutation arity mismatch");
  Partition out(layout.total_bits());
  for (std::size_t i = 0; i < layout.rows(); ++i) {
    for (std::size_t j = 0; j < layout.cols(); ++j) {
      for (unsigned b = 0; b < layout.entry_bits(); ++b) {
        out.assign(layout.bit_index(i, j, b),
                   owner(layout.bit_index(row_perm[i], col_perm[j], b)));
      }
    }
  }
  return out;
}

}  // namespace ccmx::comm
