// Machine-word modular arithmetic and primality.
//
// The probabilistic protocols (Leighton-style fingerprinting, Freivalds
// verification, rank mod p) work over Z_p for a random prime p of
// Theta(max{log n, log k}) bits.  All moduli fit in 64 bits, so arithmetic
// uses unsigned __int128 intermediates; Miller-Rabin with the fixed base set
// below is deterministic for every modulus < 2^64.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/int128.hpp"
#include "util/rng.hpp"

namespace ccmx::num {

/// (a * b) mod m without overflow; m may be up to 2^64 - 1.
[[nodiscard]] inline std::uint64_t mulmod(std::uint64_t a, std::uint64_t b,
                                          std::uint64_t m) {
  return static_cast<std::uint64_t>(static_cast<ccmx::util::u128>(a) * b % m);
}

/// (base ^ exp) mod m.
[[nodiscard]] std::uint64_t powmod(std::uint64_t base, std::uint64_t exp,
                                   std::uint64_t m);

/// Modular inverse of a mod m for gcd(a, m) == 1; throws otherwise.
[[nodiscard]] std::uint64_t invmod(std::uint64_t a, std::uint64_t m);

/// Deterministic Miller-Rabin, valid for all n < 2^64.
[[nodiscard]] bool is_prime(std::uint64_t n);

/// Smallest prime >= n (n <= 2^63 to avoid overflow in the scan).
[[nodiscard]] std::uint64_t next_prime(std::uint64_t n);

/// Uniform random prime with exactly `bits` bits (2 <= bits <= 62).
[[nodiscard]] std::uint64_t random_prime(unsigned bits,
                                         ccmx::util::Xoshiro256& rng);

/// All primes <= limit (simple sieve; limit <= 10^8 recommended).
[[nodiscard]] std::vector<std::uint64_t> primes_up_to(std::uint64_t limit);

/// Number of primes with exactly `bits` bits, exact for 2 <= bits <= 20
/// (used by the fingerprint error analysis) — std::nullopt outside.  A
/// table lookup.
[[nodiscard]] std::optional<std::uint64_t> count_primes_with_bits(
    unsigned bits);

}  // namespace ccmx::num
