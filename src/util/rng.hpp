// Deterministic, seedable pseudo-random generators.
//
// Experiments must be reproducible run-to-run, so all randomized components
// (fingerprint protocols, sampled truth matrices, random partitions) draw
// from these generators with explicit seeds rather than std::random_device.
#pragma once

#include <cstdint>
#include <vector>

#include "util/divisor.hpp"
#include "util/require.hpp"

namespace ccmx::util {

/// SplitMix64: used for seeding and cheap hashing.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** — the project-wide PRNG.  Satisfies
/// std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x5eed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return ~std::uint64_t{0};
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound).  bound must be positive.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) {
    CCMX_REQUIRE(bound > 0, "below() needs a positive bound");
    // Rejecting the draws below 2^64 mod bound leaves a multiple of bound
    // consecutive values, so r % bound has no modulo bias.
    const std::uint64_t threshold = (~bound + 1) % bound;
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= threshold) return r % bound;
    }
  }

  /// A bound b >= 1 prepared for many draws: below's rejection threshold
  /// 2^64 mod b, and b as a prepared divisor for the remainder.
  struct Bound {
    Divisor divisor;
    std::uint64_t threshold = 0;
  };

  /// Prepares bound for below(const Bound&).  Throws contract_error when
  /// bound is 0, as below(0) does.
  [[nodiscard]] static Bound prepare(std::uint64_t bound) {
    CCMX_REQUIRE(bound > 0, "below() needs a positive bound");
    return {Divisor(bound), (~bound + 1) % bound};
  }

  /// below(b) for the bound b was prepared from, draw for draw: the same
  /// draws are rejected, and r mod b comes from the prepared divisor
  /// without a division.  Worth it when one bound serves many draws;
  /// below(b) is cheaper for a bound used once.
  [[nodiscard]] std::uint64_t below(const Bound& bound) noexcept {
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= bound.threshold) return bound.divisor.remainder(r);
    }
  }

  /// Uniform integer in the closed interval [lo, hi].
  [[nodiscard]] std::int64_t range(std::int64_t lo, std::int64_t hi) {
    CCMX_REQUIRE(lo <= hi, "range() needs lo <= hi");
    const auto width =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    if (width == 0) return static_cast<std::int64_t>((*this)());  // full span
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                     below(width));
  }

  /// Fair coin.
  [[nodiscard]] bool coin() { return ((*this)() & 1u) != 0; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

/// A random subset of {0, .., universe-1} of the given size (without
/// replacement), in increasing order.
[[nodiscard]] std::vector<std::size_t> sample_without_replacement(
    std::size_t universe, std::size_t size, Xoshiro256& rng);

/// Fisher–Yates shuffle of indices 0..n-1.
[[nodiscard]] std::vector<std::size_t> random_permutation(std::size_t n,
                                                          Xoshiro256& rng);

}  // namespace ccmx::util
