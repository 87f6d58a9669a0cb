// Division by a fixed 64-bit divisor without a division instruction.
//
// A divisor d >= 1 that serves many divisions is prepared once as
// M = ceil(2^128 / d) mod 2^128 (Lemire, Kaser and Kurz, "Faster remainder
// by direct computation", Softw. Pract. Exp. 49 (2019)).  Then, for every
// 64-bit n, with M = 2^128 / d + e and 0 <= e < 1:
//   - floor(n / d) is M n >> 128: M n / 2^128 = n / d + n e / 2^128, and
//     n e / 2^128 < 2^-64 <= 1 / d cannot lift n / d past the next integer;
//   - n mod d: the low 128 bits of M n hold the fractional part of n / d
//     scaled by 2^128, rounded up; times d, their top 64 bits are n mod d.
// Both are exact because 128 >= 64 + log2(d).  For d = 1, M wraps to 0:
// the remainder is then 0, and the quotient is n itself.
#pragma once

#include <cstdint>

#include "util/int128.hpp"

namespace ccmx::util {

class Divisor {
 public:
  /// Prepares d; d must be at least 1.
  constexpr explicit Divisor(std::uint64_t d = 1) noexcept
      : value_(d), inverse_(~u128{0} / d + 1) {}

  /// floor(n / d).
  [[nodiscard]] constexpr std::uint64_t quotient(
      std::uint64_t n) const noexcept {
    if (inverse_ == 0) return n;  // d = 1
    const u128 low =
        static_cast<u128>(static_cast<std::uint64_t>(inverse_)) * n;
    const u128 high = (inverse_ >> 64) * n;
    return static_cast<std::uint64_t>((high + (low >> 64)) >> 64);
  }

  /// n mod d.
  [[nodiscard]] constexpr std::uint64_t remainder(
      std::uint64_t n) const noexcept {
    const u128 fraction = inverse_ * n;
    const u128 low =
        static_cast<u128>(static_cast<std::uint64_t>(fraction)) * value_;
    const u128 high = (fraction >> 64) * value_;
    return static_cast<std::uint64_t>((high + (low >> 64)) >> 64);
  }

  /// floor(n / d) for a signed n, without a branch on its sign: for
  /// n < 0 it is -1 - floor((-n - 1) / d), and -n - 1 = ~n.
  [[nodiscard]] constexpr std::int64_t floor(std::int64_t n) const noexcept {
    const auto sign = static_cast<std::uint64_t>(n >> 63);  // 0 or all ones
    return static_cast<std::int64_t>(
        quotient(static_cast<std::uint64_t>(n) ^ sign) ^ sign);
  }

  /// ceil(n / d) for a signed n: the floor, plus 1 unless d divides n.
  /// floor(n / d) d is within d of n, so it matches n mod 2^64 only when
  /// it equals n.
  [[nodiscard]] constexpr std::int64_t ceil(std::int64_t n) const noexcept {
    const std::int64_t down = floor(n);
    const bool exact = static_cast<std::uint64_t>(down) * value_ ==
                       static_cast<std::uint64_t>(n);
    return exact ? down : down + 1;
  }

 private:
  std::uint64_t value_;
  u128 inverse_;
};

}  // namespace ccmx::util
