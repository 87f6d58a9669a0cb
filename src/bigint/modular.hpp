// Machine-word modular arithmetic, the prime field Z_p, and primality.
//
// The probabilistic protocols (Leighton-style fingerprinting, Freivalds
// verification, rank mod p) work over Z_p for a random prime p of
// Theta(max{log n, log k}) bits, and the exact engine eliminates modulo a
// ladder of 62-bit primes.  Every mod-p matrix loop runs on Zp below,
// which never divides a 128-bit number.  mulmod, powmod and is_prime take
// any modulus up to 2^64 - 1 with unsigned __int128 intermediates; they
// run outside the matrix loops.  Miller-Rabin with the fixed base set
// below is deterministic for every modulus < 2^64.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/int128.hpp"
#include "util/rng.hpp"

namespace ccmx::num {

class BigInt;

/// (a * b) mod m without overflow; m may be up to 2^64 - 1.
[[nodiscard]] inline std::uint64_t mulmod(std::uint64_t a, std::uint64_t b,
                                          std::uint64_t m) {
  return static_cast<std::uint64_t>(static_cast<ccmx::util::u128>(a) * b % m);
}

/// Zp's moduli lie below 2^kZpBits.  This is also the one cap on the
/// widths that get reduced mod p: matrix entries (comm::MatrixBitLayout,
/// Freivalds' k) and the protocols' random primes.
inline constexpr unsigned kZpBits = 62;

/// Arithmetic modulo p for 2 <= p < 2^62: the field Z_p when p is prime.
///
/// Elements are residues in [0, p).  No operation divides a 128-bit
/// number.  The constructor precomputes the reciprocal of p shifted to the
/// top of a word (Moller and Granlund, "Improved division by invariant
/// integers", IEEE Trans. Comput. 60 (2011), Algorithm 4), so reducing a
/// double word costs two multiplies and two corrections.  A multiplier
/// applied many times, such as an elimination row's factor, is prepared
/// once by fixed(w), which stores Shoup's quotient floor(w 2^64 / p) (NTL's
/// MulModPrecon); mul(a, fixed(w)) is then one high and two low multiplies
/// and one correction, for any 64-bit a.  The bound p < 2^62 keeps a + b
/// and a + p - b inside a word and Shoup's remainder in [0, 2p).
class Zp {
 public:
  /// A multiplier w < p with its Shoup quotient floor(w 2^64 / p).
  struct Fixed {
    std::uint64_t w = 0;
    std::uint64_t quotient = 0;
  };

  /// Throws contract_error unless 2 <= p < 2^62.  p need not be prime,
  /// but inv() needs a unit.
  explicit Zp(std::uint64_t p);

  [[nodiscard]] std::uint64_t p() const noexcept { return p_; }

  /// a + b, a - b and -a for a, b < p.
  [[nodiscard]] std::uint64_t add(std::uint64_t a,
                                  std::uint64_t b) const noexcept {
    const std::uint64_t sum = a + b;
    return sum >= p_ ? sum - p_ : sum;
  }
  [[nodiscard]] std::uint64_t sub(std::uint64_t a,
                                  std::uint64_t b) const noexcept {
    return a >= b ? a - b : a + p_ - b;
  }
  [[nodiscard]] std::uint64_t neg(std::uint64_t a) const noexcept {
    return a == 0 ? 0 : p_ - a;
  }

  /// a * b mod p for any word a and b < p.
  [[nodiscard]] std::uint64_t mul(std::uint64_t a,
                                  std::uint64_t b) const noexcept {
    const util::u128 product = static_cast<util::u128>(a) * b;
    return horner(static_cast<std::uint64_t>(product >> 64),
                  static_cast<std::uint64_t>(product));
  }

  /// Shoup's form of the multiplier w < p.
  [[nodiscard]] Fixed fixed(std::uint64_t w) const noexcept {
    return {w, divide(w << shift_, 0).quotient};
  }

  /// a * w mod p for any word a.
  [[nodiscard]] std::uint64_t mul(std::uint64_t a, Fixed w) const noexcept {
    const auto q = static_cast<std::uint64_t>(
        (static_cast<util::u128>(a) * w.quotient) >> 64);
    const std::uint64_t r = a * w.w - q * p_;  // in [0, 2p), exact mod 2^64
    return r >= p_ ? r - p_ : r;
  }

  /// (acc 2^64 + word) mod p for acc < p: one Horner step in base 2^64.
  [[nodiscard]] std::uint64_t horner(std::uint64_t acc,
                                     std::uint64_t word) const noexcept {
    return divide((acc << shift_) | (word >> (64 - shift_)), word << shift_)
               .remainder >>
           shift_;
  }

  /// word mod p.
  [[nodiscard]] std::uint64_t reduce(std::uint64_t word) const noexcept {
    return horner(0, word);
  }

  /// v mod p in [0, p), negative v included, by Horner over its limbs.
  [[nodiscard]] std::uint64_t reduce(const BigInt& v) const;

  /// The inverse of a unit a; throws contract_error on a non-unit.
  [[nodiscard]] std::uint64_t inv(std::uint64_t a) const;

 private:
  struct QuotRem {
    std::uint64_t quotient;
    std::uint64_t remainder;
  };

  /// (hi 2^64 + lo) divided by d_ for hi < d_, from the reciprocal v_.
  [[nodiscard]] QuotRem divide(std::uint64_t hi,
                               std::uint64_t lo) const noexcept {
    const util::u128 estimate = static_cast<util::u128>(v_) * hi +
                                ((static_cast<util::u128>(hi) << 64) | lo);
    std::uint64_t q = static_cast<std::uint64_t>(estimate >> 64) + 1;
    std::uint64_t r = lo - q * d_;
    // The first correction depends on the data and predicts badly, so it
    // is a mask rather than a branch; the second is rare.
    const std::uint64_t over =
        std::uint64_t{0} - (r > static_cast<std::uint64_t>(estimate));
    q += over;
    r += over & d_;
    if (r >= d_) [[unlikely]] {
      ++q;
      r -= d_;
    }
    return {q, r};
  }

  std::uint64_t p_ = 0;
  int shift_ = 0;          // leading zeros of p, in [2, 62]
  std::uint64_t d_ = 0;    // p << shift_, top bit set
  std::uint64_t v_ = 0;    // floor((2^128 - 1) / d_) - 2^64
};

/// (base ^ exp) mod m.
[[nodiscard]] std::uint64_t powmod(std::uint64_t base, std::uint64_t exp,
                                   std::uint64_t m);

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
