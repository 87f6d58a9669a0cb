#include "bigint/bigint.hpp"

#include <algorithm>
#include <bit>
#include <ostream>

#include "obs/obs.hpp"
#include "util/narrow.hpp"
#include "util/require.hpp"

namespace ccmx::num {

namespace {

using util::u128;
using Limb = BigInt::Limb;

constexpr std::size_t kKaratsubaThreshold = 24;  // limbs
constexpr unsigned kLimbBits = BigInt::kLimbBits;

// Promotion-rate meters (see docs/PERFORMANCE.md).  Both gate on
// obs::enabled() at the call site so an untraced run pays one relaxed
// atomic load per op, and CCMX_OBS=OFF compiles them out entirely.
const obs::Counter g_small_ops("bigint.small_ops");
const obs::Counter g_promotions("bigint.promotions");

inline void note_small_op() noexcept {
  if (obs::enabled()) g_small_ops.add();
}

[[nodiscard]] constexpr Limb lo64(u128 v) noexcept {
  return static_cast<Limb>(v);
}
[[nodiscard]] constexpr Limb hi64(u128 v) noexcept {
  return static_cast<Limb>(v >> 64);
}

[[nodiscard]] constexpr std::uint64_t mag_of_i64(std::int64_t v) noexcept {
  // Avoid UB on INT64_MIN by negating in unsigned space.
  return v < 0 ? ~static_cast<std::uint64_t>(v) + 1
               : static_cast<std::uint64_t>(v);
}

void trim_vec(std::vector<Limb>& v) noexcept {
  while (!v.empty() && v.back() == 0) v.pop_back();
}

// ------------------------------------------------------------------ kernels
//
// The magnitude kernels read raw (pointer, count) spans so inline and heap
// operands share one code path, and the inner loops are plain carry chains
// over 64-bit limbs with 128-bit intermediates — branch-light and
// index-free enough for the compiler to keep them in registers.

int cmp_mag(const Limb* a, std::size_t an, const Limb* b,
            std::size_t bn) noexcept {
  if (an != bn) return an < bn ? -1 : 1;
  for (std::size_t i = an; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

std::vector<Limb> add_mag(const Limb* a, std::size_t an, const Limb* b,
                          std::size_t bn) {
  if (an < bn) {
    std::swap(a, b);
    std::swap(an, bn);
  }
  std::vector<Limb> out;
  out.reserve(an + 1);
  Limb carry = 0;
  std::size_t i = 0;
  for (; i < bn; ++i) {
    const u128 sum = static_cast<u128>(a[i]) + b[i] + carry;
    out.push_back(lo64(sum));
    carry = hi64(sum);
  }
  for (; i < an; ++i) {
    const Limb sum = a[i] + carry;
    carry = static_cast<Limb>(sum < carry);
    out.push_back(sum);
  }
  if (carry != 0) out.push_back(carry);
  return out;
}

// requires |a| >= |b|
std::vector<Limb> sub_mag(const Limb* a, std::size_t an, const Limb* b,
                          std::size_t bn) {
  CCMX_ASSERT(cmp_mag(a, an, b, bn) >= 0);
  std::vector<Limb> out;
  out.reserve(an);
  Limb borrow = 0;
  std::size_t i = 0;
  for (; i < bn; ++i) {
    const Limb bi = b[i];
    const Limb diff = a[i] - bi - borrow;
    // Borrow-out: a < b + borrow, detected in unsigned space.
    borrow = static_cast<Limb>((a[i] < bi) | ((a[i] == bi) & borrow));
    out.push_back(diff);
  }
  for (; i < an; ++i) {
    const Limb diff = a[i] - borrow;
    borrow = static_cast<Limb>(a[i] < borrow);
    out.push_back(diff);
  }
  trim_vec(out);
  return out;
}

std::vector<Limb> mul_school(const Limb* a, std::size_t an, const Limb* b,
                             std::size_t bn) {
  std::vector<Limb> out(an + bn, 0);
  for (std::size_t i = 0; i < an; ++i) {
    if (a[i] == 0) continue;
    const u128 ai = a[i];
    Limb carry = 0;
    for (std::size_t j = 0; j < bn; ++j) {
      const u128 cur = static_cast<u128>(out[i + j]) + ai * b[j] + carry;
      out[i + j] = lo64(cur);
      carry = hi64(cur);
    }
    out[i + bn] = carry;  // position untouched by lower rows
  }
  trim_vec(out);
  return out;
}

std::vector<Limb> mul_karatsuba(const std::vector<Limb>& a,
                                const std::vector<Limb>& b) {
  if (std::min(a.size(), b.size()) < kKaratsubaThreshold) {
    return mul_school(a.data(), a.size(), b.data(), b.size());
  }
  const std::size_t half = std::max(a.size(), b.size()) / 2;
  const auto split = [half](const std::vector<Limb>& v)
      -> std::pair<std::vector<Limb>, std::vector<Limb>> {
    if (v.size() <= half) return {v, {}};
    std::vector<Limb> lo(v.begin(),
                         v.begin() + static_cast<std::ptrdiff_t>(half));
    std::vector<Limb> hi(v.begin() + static_cast<std::ptrdiff_t>(half),
                         v.end());
    trim_vec(lo);
    return {std::move(lo), std::move(hi)};
  };
  auto [a_lo, a_hi] = split(a);
  auto [b_lo, b_hi] = split(b);

  std::vector<Limb> z0 = mul_karatsuba(a_lo, b_lo);
  std::vector<Limb> z2 = mul_karatsuba(a_hi, b_hi);
  std::vector<Limb> sum_a = add_mag(a_lo.data(), a_lo.size(), a_hi.data(),
                                    a_hi.size());
  std::vector<Limb> sum_b = add_mag(b_lo.data(), b_lo.size(), b_hi.data(),
                                    b_hi.size());
  std::vector<Limb> z1 = mul_karatsuba(sum_a, sum_b);
  z1 = sub_mag(z1.data(), z1.size(), z0.data(), z0.size());
  z1 = sub_mag(z1.data(), z1.size(), z2.data(), z2.size());

  std::vector<Limb> out(a.size() + b.size() + 1, 0);
  const auto accumulate = [&out](const std::vector<Limb>& part,
                                 std::size_t shift) {
    Limb carry = 0;
    std::size_t pos = shift;
    for (std::size_t i = 0; i < part.size(); ++i, ++pos) {
      const u128 cur = static_cast<u128>(out[pos]) + part[i] + carry;
      out[pos] = lo64(cur);
      carry = hi64(cur);
    }
    while (carry != 0) {
      const u128 cur = static_cast<u128>(out[pos]) + carry;
      out[pos] = lo64(cur);
      carry = hi64(cur);
      ++pos;
    }
  };
  accumulate(z0, 0);
  accumulate(z1, half);
  accumulate(z2, 2 * half);
  trim_vec(out);
  return out;
}

std::vector<Limb> mul_mag(const Limb* a, std::size_t an, const Limb* b,
                          std::size_t bn) {
  if (an == 0 || bn == 0) return {};
  if (std::min(an, bn) < kKaratsubaThreshold) {
    return mul_school(a, an, b, bn);
  }
  return mul_karatsuba(std::vector<Limb>(a, a + an),
                       std::vector<Limb>(b, b + bn));
}

// Knuth TAOCP vol. 2, Algorithm D, base 2^64.
void divmod_mag(const Limb* num, std::size_t num_n, const Limb* den,
                std::size_t den_n, std::vector<Limb>& quot,
                std::vector<Limb>& rem) {
  CCMX_REQUIRE(den_n != 0, "division by zero");
  quot.clear();
  rem.clear();
  if (cmp_mag(num, num_n, den, den_n) < 0) {
    rem.assign(num, num + num_n);
    return;
  }
  if (den_n == 1) {
    const Limb d = den[0];
    quot.assign(num_n, 0);
    Limb r = 0;
    for (std::size_t i = num_n; i-- > 0;) {
      const u128 cur = (static_cast<u128>(r) << 64) | num[i];
      quot[i] = static_cast<Limb>(cur / d);
      r = static_cast<Limb>(cur % d);
    }
    trim_vec(quot);
    if (r != 0) rem.push_back(r);
    return;
  }

  // Normalize so the top limb of the divisor has its high bit set.
  const unsigned shift =
      util::narrow_cast<unsigned>(std::countl_zero(den[den_n - 1]));
  const auto shl = [](const Limb* p, std::size_t n, unsigned s) {
    std::vector<Limb> out(n + 1, 0);
    if (s == 0) {
      for (std::size_t i = 0; i < n; ++i) out[i] = p[i];
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        out[i] |= p[i] << s;
        out[i + 1] |= p[i] >> (kLimbBits - s);
      }
    }
    trim_vec(out);
    return out;
  };
  std::vector<Limb> u = shl(num, num_n, shift);
  const std::vector<Limb> v = shl(den, den_n, shift);
  const std::size_t n = v.size();
  const std::size_t m = u.size() >= n ? u.size() - n : 0;
  u.resize(num_n + 1 + (shift ? 1 : 0), 0);  // ensure u[m + n] exists
  if (u.size() < m + n + 1) u.resize(m + n + 1, 0);

  quot.assign(m + 1, 0);
  const Limb v_top = v[n - 1];
  const Limb v_second = v[n - 2];

  for (std::size_t j = m + 1; j-- > 0;) {
    const u128 numerator = (static_cast<u128>(u[j + n]) << 64) | u[j + n - 1];
    u128 q_hat = numerator / v_top;
    u128 r_hat = numerator % v_top;
    while (q_hat >= (static_cast<u128>(1) << 64) ||
           q_hat * v_second >
               ((r_hat << 64) | u[j + n - 2])) {
      --q_hat;
      r_hat += v_top;
      if (r_hat >= (static_cast<u128>(1) << 64)) break;
    }
    // Multiply-subtract q_hat * v from u[j .. j+n].
    const Limb q_word = lo64(q_hat);
    Limb borrow = 0;
    Limb carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const u128 product = static_cast<u128>(q_word) * v[i] + carry;
      carry = hi64(product);
      const Limb sub = lo64(product);
      const Limb ui = u[i + j];
      const Limb diff = ui - sub - borrow;
      borrow = static_cast<Limb>((ui < sub) | ((ui == sub) & borrow));
      u[i + j] = diff;
    }
    const Limb top = u[j + n];
    const Limb top_diff = top - carry - borrow;
    const bool went_negative = (top < carry) || (top == carry && borrow != 0);
    if (went_negative) {
      // q_hat was one too large: add back.
      u[j + n] = top_diff;
      quot[j] = q_word - 1;
      Limb add_carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const u128 sum = static_cast<u128>(u[i + j]) + v[i] + add_carry;
        u[i + j] = lo64(sum);
        add_carry = hi64(sum);
      }
      u[j + n] += add_carry;
    } else {
      u[j + n] = top_diff;
      quot[j] = q_word;
    }
  }

  trim_vec(quot);
  // Denormalize remainder: u[0..n-1] >> shift.
  rem.assign(u.begin(), u.begin() + static_cast<std::ptrdiff_t>(n));
  if (shift != 0) {
    for (std::size_t i = 0; i + 1 < rem.size(); ++i) {
      rem[i] = (rem[i] >> shift) | (rem[i + 1] << (kLimbBits - shift));
    }
    rem.back() >>= shift;
  }
  trim_vec(rem);
}

}  // namespace

// --------------------------------------------------- representation plumbing

void BigInt::swap(BigInt& other) noexcept {
  if (on_heap() && other.on_heap()) {
    heap_.swap(other.heap_);
  } else if (!on_heap() && !other.on_heap()) {
    std::swap(small_, other.small_);
  } else {
    BigInt& h = on_heap() ? *this : other;
    BigInt& s = on_heap() ? other : *this;
    std::vector<Limb> moved = std::move(h.heap_);
    h.heap_.~vector();
    ::new (&h.small_) std::array<Limb, kInlineLimbs>(s.small_);
    ::new (&s.heap_) std::vector<Limb>(std::move(moved));
  }
  std::swap(sign_, other.sign_);
  std::swap(tag_, other.tag_);
}

util::u128 BigInt::small_mag() const noexcept {
  CCMX_ASSERT(!on_heap());
  return (static_cast<u128>(small_[1]) << 64) | small_[0];
}

void BigInt::set_u128(util::u128 mag, int sign) noexcept {
  if (on_heap()) heap_.~vector();
  ::new (&small_) std::array<Limb, kInlineLimbs>{lo64(mag), hi64(mag)};
  tag_ = small_[1] != 0 ? 2u : (small_[0] != 0 ? 1u : 0u);
  sign_ = tag_ == 0 ? 0 : util::narrow_cast<std::int32_t>(sign);
}

void BigInt::adopt(std::vector<Limb>&& mag, int sign) {
  trim_vec(mag);
  if (mag.size() <= kInlineLimbs) {
    const Limb lo = mag.empty() ? 0 : mag[0];
    const Limb hi = mag.size() < 2 ? 0 : mag[1];
    set_u128((static_cast<u128>(hi) << 64) | lo, sign);
    return;
  }
  if (on_heap()) {
    heap_ = std::move(mag);
  } else {
    if (obs::enabled()) g_promotions.add();
    ::new (&heap_) std::vector<Limb>(std::move(mag));
    tag_ = kHeapTag;
  }
  sign_ = util::narrow_cast<std::int32_t>(sign);
}

BigInt::BigInt(std::int64_t value) noexcept : small_{mag_of_i64(value), 0} {
  tag_ = value != 0 ? 1u : 0u;
  sign_ = value == 0 ? 0 : (value < 0 ? -1 : 1);
}

// ------------------------------------------------------------------- parsing

BigInt BigInt::from_string(std::string_view text) {
  CCMX_REQUIRE(!text.empty(), "empty numeral");
  bool negative = false;
  std::size_t pos = 0;
  if (text[0] == '+' || text[0] == '-') {
    negative = text[0] == '-';
    pos = 1;
  }
  CCMX_REQUIRE(pos < text.size(), "sign without digits");
  // Fold 18 decimal digits (the largest power of ten fitting int64_t with
  // headroom) per word-sized multiply-add; word-sized results never
  // allocate.
  constexpr std::int64_t kPow10[19] = {
      1LL,
      10LL,
      100LL,
      1000LL,
      10000LL,
      100000LL,
      1000000LL,
      10000000LL,
      100000000LL,
      1000000000LL,
      10000000000LL,
      100000000000LL,
      1000000000000LL,
      10000000000000LL,
      100000000000000LL,
      1000000000000000LL,
      10000000000000000LL,
      100000000000000000LL,
      1000000000000000000LL};
  BigInt result;
  while (pos < text.size()) {
    const std::size_t take = std::min<std::size_t>(18, text.size() - pos);
    std::int64_t chunk = 0;
    for (std::size_t i = 0; i < take; ++i) {
      const char c = text[pos + i];
      CCMX_REQUIRE(c >= '0' && c <= '9', "non-decimal digit in numeral");
      chunk = chunk * 10 + (c - '0');
    }
    result *= kPow10[take];
    result += chunk;
    pos += take;
  }
  if (negative && !result.is_zero()) result.sign_ = -1;
  return result;
}

BigInt BigInt::from_limbs(std::vector<Limb> magnitude, bool negative) {
  BigInt out;
  out.adopt(std::move(magnitude), negative ? -1 : 1);
  return out;
}

BigInt BigInt::pow2(unsigned e) {
  BigInt one(1);
  return one <<= e;
}

BigInt BigInt::pow(const BigInt& base, unsigned e) {
  BigInt result(1);
  BigInt acc = base;
  while (e != 0) {
    if (e & 1u) result *= acc;
    e >>= 1;
    if (e != 0) acc *= acc;
  }
  return result;
}

// ----------------------------------------------------------------- observers

std::size_t BigInt::bit_length() const noexcept {
  const std::size_t count = limb_count();
  if (count == 0) return 0;
  const Limb top = limb(count - 1);
  return (count - 1) * kLimbBits +
         (kLimbBits - static_cast<std::size_t>(std::countl_zero(top)));
}

bool BigInt::fits_int64() const noexcept {
  const std::size_t count = limb_count();
  if (count == 0) return true;
  if (count > 1) return false;
  const Limb mag = limb(0);
  if (mag < (Limb{1} << 63)) return true;
  // Exactly 2^63 of magnitude: only -2^63 fits.
  return sign_ < 0 && mag == (Limb{1} << 63);
}

std::int64_t BigInt::to_int64() const {
  CCMX_REQUIRE(fits_int64(), "BigInt does not fit in int64_t");
  const std::uint64_t mag = limb_count() == 0 ? 0 : limb(0);
  if (sign_ < 0) return static_cast<std::int64_t>(~mag + 1);
  return static_cast<std::int64_t>(mag);
}

double BigInt::to_double() const noexcept {
  double mag = 0.0;
  for (std::size_t i = limb_count(); i-- > 0;) {
    mag = mag * 18446744073709551616.0 + static_cast<double>(limb(i));
  }
  return sign_ < 0 ? -mag : mag;
}

std::string BigInt::to_string() const {
  if (sign_ == 0) return "0";
  constexpr Limb kChunk = 10000000000000000000ULL;  // 10^19
  std::string digits;
  if (!on_heap()) {
    u128 mag = small_mag();
    while (mag != 0) {
      digits.push_back(
          util::narrow_cast<char>('0' + static_cast<Limb>(mag % 10)));
      mag /= 10;
    }
  } else {
    // Repeated division by 10^19.
    std::vector<Limb> mag = heap_;
    while (!mag.empty()) {
      Limb rem = 0;
      for (std::size_t i = mag.size(); i-- > 0;) {
        const u128 cur = (static_cast<u128>(rem) << 64) | mag[i];
        mag[i] = static_cast<Limb>(cur / kChunk);
        rem = static_cast<Limb>(cur % kChunk);
      }
      trim_vec(mag);
      for (int d = 0; d < 19; ++d) {
        digits.push_back(util::narrow_cast<char>('0' + rem % 10));
        rem /= 10;
      }
    }
    while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  }
  if (sign_ < 0) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

BigInt BigInt::operator-() const {
  BigInt result = *this;
  result.sign_ = -result.sign_;
  return result;
}

BigInt BigInt::abs() const {
  BigInt result = *this;
  if (result.sign_ < 0) result.sign_ = 1;
  return result;
}

// ------------------------------------------------------------ signed add/sub

void BigInt::add_signed(const Limb* rhs, std::size_t n, int rhs_sign) {
  if (rhs_sign == 0 || n == 0) return;
  if (sign_ == 0) {
    if (n <= kInlineLimbs) {
      set_u128((n > 1 ? (static_cast<u128>(rhs[1]) << 64) : u128{0}) | rhs[0],
               rhs_sign);
    } else {
      adopt(std::vector<Limb>(rhs, rhs + n), rhs_sign);
    }
    return;
  }
  if (!on_heap() && n <= kInlineLimbs) {
    note_small_op();
    const u128 am = small_mag();
    const u128 bm =
        (n > 1 ? (static_cast<u128>(rhs[1]) << 64) : u128{0}) | rhs[0];
    if (sign_ == rhs_sign) {
      const u128 sum = am + bm;
      if (sum >= am) {
        set_u128(sum, sign_);
      } else {
        adopt({lo64(sum), hi64(sum), 1}, sign_);  // 129-bit carry out
      }
    } else if (am == bm) {
      set_u128(0, 0);
    } else if (am > bm) {
      set_u128(am - bm, sign_);
    } else {
      set_u128(bm - am, rhs_sign);
    }
    return;
  }
  const Limb* lp = limb_data();
  const std::size_t ln = limb_count();
  if (sign_ == rhs_sign) {
    adopt(add_mag(lp, ln, rhs, n), sign_);
    return;
  }
  const int cmp = cmp_mag(lp, ln, rhs, n);
  if (cmp == 0) {
    set_u128(0, 0);
  } else if (cmp > 0) {
    adopt(sub_mag(lp, ln, rhs, n), sign_);
  } else {
    adopt(sub_mag(rhs, n, lp, ln), rhs_sign);
  }
}

void BigInt::add_word(std::uint64_t mag, int rhs_sign) {
  if (mag == 0 || rhs_sign == 0) return;
  if (sign_ == 0) {
    set_u128(mag, rhs_sign);
    return;
  }
  if (!on_heap()) {
    note_small_op();
    const u128 am = small_mag();
    if (sign_ == rhs_sign) {
      const u128 sum = am + mag;
      if (sum >= am) {
        set_u128(sum, sign_);
      } else {
        adopt({lo64(sum), hi64(sum), 1}, sign_);
      }
    } else if (am == mag) {
      set_u128(0, 0);
    } else if (am > mag) {
      set_u128(am - mag, sign_);
    } else {
      set_u128(static_cast<u128>(mag) - am, rhs_sign);
    }
    return;
  }
  // Heap: word-sized ripple, allocation-free (a >= 3-limb magnitude always
  // dominates a single word, so opposite signs can only subtract).
  if (sign_ == rhs_sign) {
    Limb carry = mag;
    for (std::size_t i = 0; carry != 0 && i < heap_.size(); ++i) {
      heap_[i] += carry;
      carry = static_cast<Limb>(heap_[i] < carry);
    }
    if (carry != 0) heap_.push_back(carry);
    return;
  }
  Limb borrow = mag;
  for (std::size_t i = 0; borrow != 0 && i < heap_.size(); ++i) {
    const Limb old = heap_[i];
    heap_[i] = old - borrow;
    borrow = static_cast<Limb>(old < borrow);
  }
  CCMX_ASSERT(borrow == 0);
  if (heap_.back() == 0) {
    std::vector<Limb> mag_vec = std::move(heap_);
    adopt(std::move(mag_vec), sign_);  // re-canonicalize (may demote)
  }
}

BigInt& BigInt::operator+=(const BigInt& rhs) {
  add_signed(rhs.limb_data(), rhs.limb_count(), rhs.sign_);
  return *this;
}

BigInt& BigInt::operator-=(const BigInt& rhs) {
  if (&rhs == this) {
    set_u128(0, 0);
    return *this;
  }
  add_signed(rhs.limb_data(), rhs.limb_count(), -rhs.sign_);
  return *this;
}

BigInt& BigInt::operator+=(std::int64_t rhs) {
  add_word(mag_of_i64(rhs), rhs < 0 ? -1 : 1);
  return *this;
}

BigInt& BigInt::operator-=(std::int64_t rhs) {
  add_word(mag_of_i64(rhs), rhs < 0 ? 1 : -1);
  return *this;
}

// -------------------------------------------------------------- multiplying

BigInt& BigInt::operator*=(const BigInt& rhs) {
  if (sign_ == 0) return *this;
  if (rhs.sign_ == 0) {
    set_u128(0, 0);
    return *this;
  }
  if (!on_heap() && !rhs.on_heap()) {
    note_small_op();
    const std::size_t an = tag_;
    const std::size_t bn = rhs.tag_;
    if (an == 1 && bn == 1) {
      // Single-word product: always fits the inline form.
      set_u128(static_cast<u128>(small_[0]) * rhs.small_[0],
               sign_ * rhs.sign_);
      return *this;
    }
    // Fixed-size schoolbook over at most 2x2 limbs into a stack buffer.
    const std::array<Limb, kInlineLimbs> a = small_;
    const std::array<Limb, kInlineLimbs> b = rhs.small_;
    Limb r[2 * kInlineLimbs] = {0, 0, 0, 0};
    for (std::size_t i = 0; i < an; ++i) {
      const u128 ai = a[i];
      Limb carry = 0;
      for (std::size_t j = 0; j < bn; ++j) {
        const u128 cur = static_cast<u128>(r[i + j]) + ai * b[j] + carry;
        r[i + j] = lo64(cur);
        carry = hi64(cur);
      }
      r[i + bn] = carry;
    }
    std::size_t rn = an + bn;
    while (rn > 0 && r[rn - 1] == 0) --rn;
    if (rn <= kInlineLimbs) {
      set_u128((static_cast<u128>(r[1]) << 64) | r[0], sign_ * rhs.sign_);
    } else {
      adopt(std::vector<Limb>(r, r + rn), sign_ * rhs.sign_);
    }
    return *this;
  }
  adopt(mul_mag(limb_data(), limb_count(), rhs.limb_data(), rhs.limb_count()),
        sign_ * rhs.sign_);
  return *this;
}

BigInt& BigInt::operator*=(std::int64_t rhs) {
  if (sign_ == 0) return *this;
  if (rhs == 0) {
    set_u128(0, 0);
    return *this;
  }
  const int result_sign = rhs < 0 ? -sign_ : sign_;
  const Limb wmag = mag_of_i64(rhs);
  if (!on_heap()) {
    note_small_op();
    const u128 p_lo = static_cast<u128>(small_[0]) * wmag;
    const u128 p_hi = static_cast<u128>(small_[1]) * wmag;
    const u128 mid = (p_lo >> 64) + p_hi;  // < 2^128: hi(p_lo) + p_hi maxes out
    if (hi64(mid) == 0) {
      set_u128((mid << 64) | lo64(p_lo), result_sign);
    } else {
      adopt({lo64(p_lo), lo64(mid), hi64(mid)}, result_sign);
    }
    return *this;
  }
  // Heap: in-place word multiply, one carry ripple over the vector.
  Limb carry = 0;
  for (Limb& l : heap_) {
    const u128 cur = static_cast<u128>(l) * wmag + carry;
    l = lo64(cur);
    carry = hi64(cur);
  }
  if (carry != 0) heap_.push_back(carry);
  sign_ = util::narrow_cast<std::int32_t>(result_sign);
  return *this;
}

BigInt& BigInt::add_mul(const BigInt& a, std::int64_t w) {
  if (a.sign_ == 0 || w == 0) return *this;
  const int psign = w < 0 ? -a.sign_ : a.sign_;
  const Limb wmag = mag_of_i64(w);
  const std::size_t an = a.limb_count();
  if (an == 1) {
    const u128 prod = static_cast<u128>(a.limb(0)) * wmag;
    const Limb span[2] = {lo64(prod), hi64(prod)};
    add_signed(span, span[1] != 0 ? 2 : 1, psign);
    return *this;
  }
  if (!a.on_heap()) {
    // Two-limb a: the three-limb product lives on the stack.
    const u128 p_lo = static_cast<u128>(a.small_[0]) * wmag;
    const u128 mid = (p_lo >> 64) + static_cast<u128>(a.small_[1]) * wmag;
    const Limb span[3] = {lo64(p_lo), lo64(mid), hi64(mid)};
    add_signed(span, span[2] != 0 ? 3 : 2, psign);
    return *this;
  }
  // Wide a: one scratch buffer for |a| * w, then a signed add.
  std::vector<Limb> prod(a.heap_.size() + 1, 0);
  Limb carry = 0;
  for (std::size_t i = 0; i < a.heap_.size(); ++i) {
    const u128 cur = static_cast<u128>(a.heap_[i]) * wmag + carry;
    prod[i] = lo64(cur);
    carry = hi64(cur);
  }
  prod[a.heap_.size()] = carry;
  trim_vec(prod);
  add_signed(prod.data(), prod.size(), psign);
  return *this;
}

// ----------------------------------------------------------------- division

std::pair<BigInt, BigInt> BigInt::divmod(const BigInt& a, const BigInt& b) {
  CCMX_REQUIRE(b.sign_ != 0, "division by zero");
  BigInt quot;
  BigInt rem;
  if (!a.on_heap() && !b.on_heap()) {
    note_small_op();
    const u128 am = a.small_mag();
    const u128 bm = b.small_mag();
    quot.set_u128(am / bm, a.sign_ * b.sign_);
    rem.set_u128(am % bm, a.sign_);
    return {std::move(quot), std::move(rem)};
  }
  std::vector<Limb> q;
  std::vector<Limb> r;
  divmod_mag(a.limb_data(), a.limb_count(), b.limb_data(), b.limb_count(), q,
             r);
  quot.adopt(std::move(q), a.sign_ * b.sign_);
  rem.adopt(std::move(r), a.sign_);
  return {std::move(quot), std::move(rem)};
}

BigInt BigInt::mod_floor(const BigInt& a, const BigInt& b) {
  BigInt r = divmod(a, b).second;
  if (r.sign_ < 0) r += b.abs();
  return r;
}

BigInt& BigInt::operator/=(const BigInt& rhs) {
  return *this = divmod(*this, rhs).first;
}

BigInt& BigInt::operator%=(const BigInt& rhs) {
  return *this = divmod(*this, rhs).second;
}

BigInt& BigInt::div_exact_word(std::int64_t w) {
  CCMX_REQUIRE(w != 0, "division by zero");
  if (sign_ == 0) return *this;
  const int result_sign = w < 0 ? -sign_ : sign_;
  const Limb wmag = mag_of_i64(w);
  if (!on_heap()) {
    note_small_op();
    const u128 am = small_mag();
    CCMX_REQUIRE(am % wmag == 0, "div_exact_word with a nonzero remainder");
    set_u128(am / wmag, result_sign);
    return *this;
  }
  Limb rem = 0;
  for (std::size_t i = heap_.size(); i-- > 0;) {
    const u128 cur = (static_cast<u128>(rem) << 64) | heap_[i];
    heap_[i] = static_cast<Limb>(cur / wmag);
    rem = static_cast<Limb>(cur % wmag);
  }
  CCMX_REQUIRE(rem == 0, "div_exact_word with a nonzero remainder");
  if (heap_.back() == 0) {
    std::vector<Limb> mag_vec = std::move(heap_);
    adopt(std::move(mag_vec), result_sign);  // trims; may demote to inline
  } else {
    sign_ = util::narrow_cast<std::int32_t>(result_sign);
  }
  return *this;
}

// ------------------------------------------------------------------- shifts

BigInt& BigInt::operator<<=(unsigned bits) {
  if (sign_ == 0 || bits == 0) return *this;
  if (!on_heap() && bit_length() + bits <= 2 * kLimbBits) {
    note_small_op();
    set_u128(small_mag() << bits, sign_);
    return *this;
  }
  const unsigned limb_shift = bits / kLimbBits;
  const unsigned bit_shift = bits % kLimbBits;
  const Limb* p = limb_data();
  const std::size_t n = limb_count();
  std::vector<Limb> out(n + limb_shift + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    out[i + limb_shift] |= bit_shift == 0 ? p[i] : (p[i] << bit_shift);
    if (bit_shift != 0) {
      out[i + limb_shift + 1] |= p[i] >> (kLimbBits - bit_shift);
    }
  }
  adopt(std::move(out), sign_);
  return *this;
}

BigInt& BigInt::operator>>=(unsigned bits) {
  if (sign_ == 0 || bits == 0) return *this;
  if (!on_heap()) {
    note_small_op();
    set_u128(bits >= 2 * kLimbBits ? u128{0} : small_mag() >> bits, sign_);
    return *this;
  }
  const unsigned limb_shift = bits / kLimbBits;
  const unsigned bit_shift = bits % kLimbBits;
  if (limb_shift >= heap_.size()) {
    set_u128(0, 0);
    return *this;
  }
  std::vector<Limb> out(heap_.begin() + static_cast<std::ptrdiff_t>(limb_shift),
                        heap_.end());
  if (bit_shift != 0) {
    for (std::size_t i = 0; i + 1 < out.size(); ++i) {
      out[i] = (out[i] >> bit_shift) | (out[i + 1] << (kLimbBits - bit_shift));
    }
    out.back() >>= bit_shift;
  }
  adopt(std::move(out), sign_);
  return *this;
}

// ------------------------------------------------------- modular / gcd / div

std::uint64_t BigInt::mod_u64(std::uint64_t m) const {
  CCMX_REQUIRE(m > 0, "zero modulus");
  // Horner over limbs with 128-bit intermediates (acc < m <= 2^64 - 1, so
  // (acc << 64) | limb never overflows u128).
  u128 acc = 0;
  for (std::size_t i = limb_count(); i-- > 0;) {
    acc = ((acc << 64) | limb(i)) % m;
  }
  return static_cast<std::uint64_t>(acc);
}

std::uint64_t BigInt::mod_floor_u64(std::uint64_t m) const {
  CCMX_REQUIRE(m > 0, "zero modulus");
  const std::uint64_t r = mod_u64(m);
  return sign_ < 0 && r != 0 ? m - r : r;
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  a.sign_ = a.limb_count() == 0 ? 0 : 1;
  b.sign_ = b.limb_count() == 0 ? 0 : 1;
  while (!b.is_zero()) {
    BigInt r = divmod(a, b).second;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigIntExtGcd BigInt::gcd_ext(const BigInt& a, const BigInt& b) {
  // Iterative extended Euclid on signed values.
  BigInt old_r = a, r = b;
  BigInt old_x(1), x(0);
  BigInt old_y(0), y(1);
  while (!r.is_zero()) {
    const auto [q, rem] = divmod(old_r, r);
    old_r = r;
    r = rem;
    BigInt next_x = old_x - q * x;
    old_x = x;
    x = std::move(next_x);
    BigInt next_y = old_y - q * y;
    old_y = y;
    y = std::move(next_y);
  }
  if (old_r.is_negative()) {
    old_r = -old_r;
    old_x = -old_x;
    old_y = -old_y;
  }
  return BigIntExtGcd{std::move(old_r), std::move(old_x), std::move(old_y)};
}

BigInt BigInt::mod_inverse(const BigInt& a, const BigInt& m) {
  CCMX_REQUIRE(m > BigInt(1), "mod_inverse needs modulus > 1");
  const BigIntExtGcd e = gcd_ext(a, m);
  CCMX_REQUIRE(e.g == BigInt(1), "mod_inverse of a non-unit");
  return mod_floor(e.x, m);
}

BigInt BigInt::divide_exact(const BigInt& rhs) const {
  auto [quot, rem] = divmod(*this, rhs);
  CCMX_REQUIRE(rem.is_zero(), "divide_exact with a nonzero remainder");
  return quot;
}

// ------------------------------------------------------- comparison / output

bool operator==(const BigInt& a, const BigInt& b) noexcept {
  if (a.sign_ != b.sign_) return false;
  const std::size_t n = a.limb_count();
  if (n != b.limb_count()) return false;
  const BigInt::Limb* ap = a.limb_data();
  const BigInt::Limb* bp = b.limb_data();
  for (std::size_t i = 0; i < n; ++i) {
    if (ap[i] != bp[i]) return false;
  }
  return true;
}

std::strong_ordering operator<=>(const BigInt& a, const BigInt& b) noexcept {
  if (a.sign_ != b.sign_) return a.sign_ <=> b.sign_;
  const int mag = cmp_mag(a.limb_data(), a.limb_count(), b.limb_data(),
                          b.limb_count());
  const int signed_cmp = a.sign_ >= 0 ? mag : -mag;
  return signed_cmp <=> 0;
}

std::ostream& operator<<(std::ostream& os, const BigInt& value) {
  return os << value.to_string();
}

std::size_t BigInt::hash() const noexcept {
  std::size_t h = sign_ >= 0 ? 0x9e3779b97f4a7c15ULL : 0x517cc1b727220a95ULL;
  for (std::size_t i = 0, n = limb_count(); i < n; ++i) {
    h ^= limb(i) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

void BigInt::append_key_bytes(std::string& out) const {
  // The magnitude is trimmed and the representation canonical, so (sign,
  // limb count, limb bytes) is a canonical key.  The count is part of the
  // key so concatenated keys stay prefix-free.
  const auto push_byte = [&out](std::uint64_t byte) {
    out.push_back(std::bit_cast<char>(static_cast<unsigned char>(byte)));
  };
  push_byte(static_cast<unsigned char>(sign_ + 1));
  const std::size_t count = limb_count();
  for (unsigned shift = 0; shift < 32; shift += 8) push_byte(count >> shift);
  for (std::size_t i = 0; i < count; ++i) {
    const Limb l = limb(i);
    for (unsigned shift = 0; shift < kLimbBits; shift += 8) {
      push_byte(l >> shift);
    }
  }
}

}  // namespace ccmx::num
