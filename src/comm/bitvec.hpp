// Fixed-length bit vectors — the raw inputs of the two-party model.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/require.hpp"

namespace ccmx::comm {

class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(std::size_t size) : size_(size), words_((size + 63) / 64, 0) {}

  /// Low `size` bits of `value`.
  static BitVec from_uint(std::uint64_t value, std::size_t size) {
    CCMX_REQUIRE(size <= 64, "from_uint limited to 64 bits");
    BitVec out(size);
    if (size > 0) out.words_[0] = value & low_mask(size);
    return out;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  [[nodiscard]] bool get(std::size_t i) const {
    CCMX_REQUIRE(i < size_, "bit index out of range");
    return (words_[i / 64] >> (i % 64)) & 1u;
  }

  void set(std::size_t i, bool value) {
    CCMX_REQUIRE(i < size_, "bit index out of range");
    const std::uint64_t mask = std::uint64_t{1} << (i % 64);
    if (value) {
      words_[i / 64] |= mask;
    } else {
      words_[i / 64] &= ~mask;
    }
  }

  /// Appends a bit (used when serializing protocol messages).
  void push_back(bool value) {
    if (size_ % 64 == 0) words_.push_back(0);
    ++size_;
    set(size_ - 1, value);
  }

  /// Appends the low `count` bits of `value`, LSB first.
  void append_uint(std::uint64_t value, std::size_t count) {
    CCMX_REQUIRE(count <= 64, "append_uint limited to 64 bits");
    if (count == 0) return;
    value &= low_mask(count);
    const std::size_t shift = size_ % 64;
    if (shift == 0) words_.push_back(0);
    words_.back() |= value << shift;
    if (shift + count > 64) words_.push_back(value >> (64 - shift));
    size_ += count;
  }

  /// Reads `count` bits starting at `pos`, LSB first: the range spans at
  /// most two words, gathered in one step.
  [[nodiscard]] std::uint64_t read_uint(std::size_t pos,
                                        std::size_t count) const {
    CCMX_REQUIRE(count <= 64 && pos + count <= size_, "read_uint out of range");
    if (count == 0) return 0;
    const std::size_t shift = pos % 64;
    std::uint64_t value = words_[pos / 64] >> shift;
    if (shift + count > 64) value |= words_[pos / 64 + 1] << (64 - shift);
    return value & low_mask(count);
  }

  [[nodiscard]] std::size_t popcount() const noexcept {
    std::size_t total = 0;
    for (const std::uint64_t w : words_) {
      total += static_cast<std::size_t>(__builtin_popcountll(w));
    }
    return total;
  }

  friend bool operator==(const BitVec& a, const BitVec& b) noexcept {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

  [[nodiscard]] std::string to_string() const {
    std::string out;
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) out.push_back(get(i) ? '1' : '0');
    return out;
  }

 private:
  /// The low `count` bits set, 1 <= count <= 64.
  static std::uint64_t low_mask(std::size_t count) noexcept {
    return count == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << count) - 1;
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace ccmx::comm
