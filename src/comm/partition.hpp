// Input partitions (Yao's model, Section 1 of the paper).
//
// An input of `total_bits` bits is split between two agents; the partition
// assigns every bit position to agent 0 or agent 1.  The paper's pi_0
// (Definition 2.1) gives agent 0 all bits of the first half of the columns
// of a 2m x 2m matrix.  MatrixBitLayout fixes the bit <-> (row, col, bit)
// correspondence used by every matrix problem in the library.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/bitvec.hpp"
#include "linalg/convert.hpp"
#include "util/rng.hpp"

namespace ccmx::comm {

/// Flat bit indexing for an r x c matrix of k-bit entries:
/// bit (i, j, b) -> ((i * cols) + j) * k + b, with b the entry's bit
/// significance (LSB first).
class MatrixBitLayout {
 public:
  MatrixBitLayout(std::size_t rows, std::size_t cols, unsigned bits_per_entry);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] unsigned entry_bits() const noexcept { return k_; }
  [[nodiscard]] std::size_t total_bits() const noexcept {
    return rows_ * cols_ * k_;
  }

  [[nodiscard]] std::size_t bit_index(std::size_t i, std::size_t j,
                                      unsigned b) const;

  /// Serializes a matrix with entries in [0, 2^k).
  [[nodiscard]] BitVec encode(const la::IntMatrix& m) const;
  /// Inverse of encode.
  [[nodiscard]] la::IntMatrix decode(const BitVec& bits) const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  unsigned k_;
};

enum class Agent : std::uint8_t { kZero = 0, kOne = 1 };

[[nodiscard]] constexpr Agent other(Agent a) noexcept {
  return a == Agent::kZero ? Agent::kOne : Agent::kZero;
}

class Partition {
 public:
  /// All bits to agent 0 (degenerate; mostly for tests).
  explicit Partition(std::size_t total_bits);

  [[nodiscard]] std::size_t total_bits() const noexcept {
    return owner_.size();
  }
  [[nodiscard]] Agent owner(std::size_t bit) const {
    CCMX_REQUIRE(bit < owner_.size(), "bit index out of range");
    return owner_[bit];
  }
  void assign(std::size_t bit, Agent agent) {
    CCMX_REQUIRE(bit < owner_.size(), "bit index out of range");
    owner_[bit] = agent;
  }
  /// The agent that owns every bit of [first, first + count); throws when
  /// the range is split between the agents.
  [[nodiscard]] Agent range_owner(std::size_t first, std::size_t count) const {
    CCMX_REQUIRE(count > 0 && first + count <= owner_.size(),
                 "bit range out of range");
    const Agent who = owner_[first];
    for (std::size_t bit = first + 1; bit < first + count; ++bit) {
      CCMX_REQUIRE(owner_[bit] == who,
                   "entry split between the agents; the protocol needs an "
                   "entry-aligned partition");
    }
    return who;
  }

  [[nodiscard]] std::size_t bits_of(Agent agent) const noexcept;
  [[nodiscard]] std::vector<std::size_t> indices_of(Agent agent) const;
  /// Even means the two shares differ by at most one bit.
  [[nodiscard]] bool is_even() const noexcept;

  /// The paper's pi_0: agent 0 reads the bits of the first cols/2 columns.
  [[nodiscard]] static Partition pi0(const MatrixBitLayout& layout);

  /// Uniformly random even partition (exactly floor(total/2) bits to
  /// agent 0).
  [[nodiscard]] static Partition random_even(std::size_t total_bits,
                                             util::Xoshiro256& rng);

  /// Applies a row and column permutation of the underlying matrix to the
  /// partition: the returned partition assigns to bit (i, j, b) the owner of
  /// bit (row_perm[i], col_perm[j], b).  Rank is permutation-invariant, so
  /// the permuted problem is equivalent — this is the move Lemma 3.9 makes.
  [[nodiscard]] Partition permuted(const MatrixBitLayout& layout,
                                   const std::vector<std::size_t>& row_perm,
                                   const std::vector<std::size_t>& col_perm)
      const;

 private:
  std::vector<Agent> owner_;
};

}  // namespace ccmx::comm
