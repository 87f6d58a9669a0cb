// Arbitrary-precision signed integers.
//
// The paper's hard-instance family works with entries up to q = 2^k - 1 and
// linear combinations involving powers (-q)^(n-2); determinants of 2n x 2n
// matrices of k-bit integers reach n(k + log n) bits.  GMP is not assumed
// (per the reproduction notes), so this module implements the needed exact
// integer arithmetic from scratch: sign-magnitude representation over 64-bit
// limbs, schoolbook + Karatsuba multiplication, and Knuth Algorithm D
// division.
//
// Representation.  Most intermediates on the hot paths (Bareiss pivots,
// CRT residue folding, census shifts) stay within one or two machine
// words, so BigInt is a tagged two-state value: magnitudes of at most
// kInlineLimbs limbs live *inline* in the object (no heap allocation at
// all), and only wider magnitudes promote to a heap vector.  The form is
// canonical — a value is stored inline if and only if it fits, so equal
// values always have identical bytes and operator==, operator<=>, hash()
// and append_key_bytes() are representation-independent by construction
// (lemma34_census key dedup depends on exactly this).  Promotions and
// inline-path hits are metered as obs counters bigint.promotions /
// bigint.small_ops when tracing is enabled.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <iosfwd>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/int128.hpp"

namespace ccmx::num {

struct BigIntExtGcd;

class BigInt {
 public:
  /// Magnitude digit.  Consumers that walk limbs (negabase, the census
  /// __int128 mirror) must go through limb_count()/limb() and static_assert
  /// against kLimbBits instead of assuming a width.
  using Limb = std::uint64_t;
  static constexpr unsigned kLimbBits = 64;
  /// Magnitudes up to this many limbs are stored inline (no allocation).
  static constexpr std::size_t kInlineLimbs = 2;

  /// Zero.
  BigInt() noexcept : small_{} {}

  BigInt(std::int64_t value) noexcept;  // NOLINT(google-explicit-constructor)
  BigInt(int value) noexcept            // NOLINT(google-explicit-constructor)
      : BigInt(static_cast<std::int64_t>(value)) {}

  BigInt(const BigInt& other) : sign_(other.sign_), tag_(other.tag_) {
    if (other.on_heap()) {
      ::new (&heap_) std::vector<Limb>(other.heap_);
    } else {
      ::new (&small_) std::array<Limb, kInlineLimbs>(other.small_);
    }
  }

  BigInt(BigInt&& other) noexcept : sign_(other.sign_), tag_(other.tag_) {
    if (other.on_heap()) {
      ::new (&heap_) std::vector<Limb>(std::move(other.heap_));
      other.heap_.~vector();
      ::new (&other.small_) std::array<Limb, kInlineLimbs>{};
      other.tag_ = 0;
      other.sign_ = 0;
    } else {
      ::new (&small_) std::array<Limb, kInlineLimbs>(other.small_);
    }
  }

  BigInt& operator=(const BigInt& other) {
    if (this == &other) return *this;
    if (on_heap() && other.on_heap()) {
      heap_ = other.heap_;
    } else if (other.on_heap()) {
      ::new (&heap_) std::vector<Limb>(other.heap_);  // small -> heap
    } else {
      if (on_heap()) heap_.~vector();
      ::new (&small_) std::array<Limb, kInlineLimbs>(other.small_);
    }
    sign_ = other.sign_;
    tag_ = other.tag_;
    return *this;
  }

  BigInt& operator=(BigInt&& other) noexcept {
    if (this != &other) swap(other);
    return *this;
  }

  ~BigInt() {
    if (on_heap()) heap_.~vector();
  }

  /// Exchanges values (and representations) with other.
  void swap(BigInt& other) noexcept;

  /// Parses an optionally signed decimal string ("-123", "42").
  [[nodiscard]] static BigInt from_string(std::string_view text);

  /// The value with magnitude limbs (little-endian, limb() order; leading
  /// zeros allowed) and the given sign.
  [[nodiscard]] static BigInt from_limbs(std::vector<Limb> magnitude,
                                         bool negative);

  /// 2^e.
  [[nodiscard]] static BigInt pow2(unsigned e);

  /// base^e for small exponents.
  [[nodiscard]] static BigInt pow(const BigInt& base, unsigned e);

  // --- observers ---
  [[nodiscard]] bool is_zero() const noexcept { return sign_ == 0; }
  [[nodiscard]] bool is_negative() const noexcept { return sign_ < 0; }
  // ccmx-lint: allow(dead-export) — numeric API surface kept with is_zero
  [[nodiscard]] bool is_odd() const noexcept {
    return sign_ != 0 && (limb(0) & 1u) != 0;
  }
  /// -1, 0 or +1.
  [[nodiscard]] int signum() const noexcept { return sign_; }
  /// Number of bits in |x| (0 for x == 0).
  [[nodiscard]] std::size_t bit_length() const noexcept;
  /// True iff the value fits in int64_t.
  [[nodiscard]] bool fits_int64() const noexcept;
  /// Value as int64_t; requires fits_int64().
  [[nodiscard]] std::int64_t to_int64() const;
  /// Approximate double value (may overflow to +-inf).
  [[nodiscard]] double to_double() const noexcept;
  [[nodiscard]] std::string to_string() const;

  /// True when the magnitude is stored inline (<= kInlineLimbs limbs; the
  /// representation is canonical, so this is a property of the *value*).
  [[nodiscard]] bool is_small() const noexcept { return !on_heap(); }

  /// Number of limbs in the trimmed magnitude (0 for zero).
  [[nodiscard]] std::size_t limb_count() const noexcept {
    return on_heap() ? heap_.size() : tag_;
  }
  /// Little-endian magnitude limb i; i must be < limb_count() (unchecked
  /// hot-path accessor, like vector::operator[]).
  [[nodiscard]] Limb limb(std::size_t i) const noexcept {
    return on_heap() ? heap_[i] : small_[i];
  }

  // --- arithmetic ---
  [[nodiscard]] BigInt operator-() const;
  [[nodiscard]] BigInt abs() const;

  BigInt& operator+=(const BigInt& rhs);
  BigInt& operator-=(const BigInt& rhs);
  BigInt& operator*=(const BigInt& rhs);
  BigInt& operator/=(const BigInt& rhs);  // truncated toward zero
  BigInt& operator%=(const BigInt& rhs);  // sign follows dividend
  BigInt& operator<<=(unsigned bits);
  BigInt& operator>>=(unsigned bits);

  // Mixed-width fast paths: word-sized right-hand sides never materialize
  // a temporary BigInt, and inline left-hand sides never allocate.
  BigInt& operator+=(std::int64_t rhs);
  BigInt& operator-=(std::int64_t rhs);
  BigInt& operator*=(std::int64_t rhs);

  /// Fused multiply-add: *this += a * w, without a BigInt temporary when
  /// the product fits in two limbs (and with one scratch buffer otherwise).
  BigInt& add_mul(const BigInt& a, std::int64_t w);

  /// In-place exact division by a nonzero word; requires w to divide
  /// *this exactly (checked).  Allocation-free in every representation.
  BigInt& div_exact_word(std::int64_t w);

  friend BigInt operator+(BigInt lhs, const BigInt& rhs) { return lhs += rhs; }
  friend BigInt operator-(BigInt lhs, const BigInt& rhs) { return lhs -= rhs; }
  friend BigInt operator*(BigInt lhs, const BigInt& rhs) { return lhs *= rhs; }
  friend BigInt operator/(BigInt lhs, const BigInt& rhs) { return lhs /= rhs; }
  friend BigInt operator%(BigInt lhs, const BigInt& rhs) { return lhs %= rhs; }
  friend BigInt operator<<(BigInt lhs, unsigned bits) { return lhs <<= bits; }
  friend BigInt operator>>(BigInt lhs, unsigned bits) { return lhs >>= bits; }
  friend BigInt operator+(BigInt lhs, std::int64_t rhs) { return lhs += rhs; }
  friend BigInt operator-(BigInt lhs, std::int64_t rhs) { return lhs -= rhs; }
  friend BigInt operator*(BigInt lhs, std::int64_t rhs) { return lhs *= rhs; }

  /// Quotient and remainder with truncation toward zero; the remainder has
  /// the dividend's sign.  Requires a nonzero divisor.
  [[nodiscard]] static std::pair<BigInt, BigInt> divmod(const BigInt& a,
                                                        const BigInt& b);

  /// Euclidean remainder in [0, |b|).
  [[nodiscard]] static BigInt mod_floor(const BigInt& a, const BigInt& b);

  /// |a| mod m for a machine-word modulus m > 0.
  [[nodiscard]] std::uint64_t mod_u64(std::uint64_t m) const;

  /// Euclidean remainder in [0, m) for a machine-word modulus m > 0.
  [[nodiscard]] std::uint64_t mod_floor_u64(std::uint64_t m) const;

  /// gcd(|a|, |b|).
  [[nodiscard]] static BigInt gcd(BigInt a, BigInt b);

  /// Extended Euclid: returns (g, x, y) with a*x + b*y = g = gcd(|a|, |b|).
  [[nodiscard]] static BigIntExtGcd gcd_ext(const BigInt& a, const BigInt& b);

  /// Modular inverse of a mod m (m > 1, gcd(a, m) == 1; checked).
  [[nodiscard]] static BigInt mod_inverse(const BigInt& a, const BigInt& m);

  /// Exact division; requires rhs to divide *this exactly (checked).
  [[nodiscard]] BigInt divide_exact(const BigInt& rhs) const;

  // --- comparison ---
  friend bool operator==(const BigInt& a, const BigInt& b) noexcept;
  friend std::strong_ordering operator<=>(const BigInt& a,
                                          const BigInt& b) noexcept;

  friend std::ostream& operator<<(std::ostream& os, const BigInt& value);

  /// FNV-style hash for use in unordered containers.  Depends only on the
  /// value (the representation is canonical), never on where limbs live.
  [[nodiscard]] std::size_t hash() const noexcept;

  /// Appends a canonical byte encoding (sign, limb count, little-endian limb
  /// bytes) to out.  Two BigInts append equal bytes iff they are equal, so
  /// concatenations of these keys dedup composite values without the
  /// quadratic cost of to_string().
  void append_key_bytes(std::string& out) const;

 private:
  // tag_ holds the inline limb count (0..kInlineLimbs); kHeapTag marks the
  // heap variant, whose size lives in the vector.  The canonical-form
  // invariant: tag_ == kHeapTag implies heap_.size() > kInlineLimbs.
  static constexpr std::uint32_t kHeapTag = 0xffffffffu;

  [[nodiscard]] bool on_heap() const noexcept { return tag_ == kHeapTag; }
  [[nodiscard]] const Limb* limb_data() const noexcept {
    return on_heap() ? heap_.data() : small_.data();
  }
  [[nodiscard]] util::u128 small_mag() const noexcept;

  void set_u128(util::u128 mag, int sign) noexcept;
  void adopt(std::vector<Limb>&& mag, int sign);
  void add_signed(const Limb* rhs, std::size_t n, int rhs_sign);
  void add_word(std::uint64_t mag, int rhs_sign);

  std::int32_t sign_ = 0;   // -1, 0, +1
  std::uint32_t tag_ = 0;   // inline limb count, or kHeapTag
  union {
    std::array<Limb, kInlineLimbs> small_;  // little-endian, trimmed
    std::vector<Limb> heap_;                // little-endian, trimmed, > 2 limbs
  };
};

inline void swap(BigInt& a, BigInt& b) noexcept { a.swap(b); }

/// Result of BigInt::gcd_ext: a*x + b*y == g.
struct BigIntExtGcd {
  BigInt g, x, y;
};

struct BigIntHash {
  std::size_t operator()(const BigInt& value) const noexcept {
    return value.hash();
  }
};

}  // namespace ccmx::num
