#include "linalg/lift.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <numeric>
#include <utility>

#include "linalg/crt.hpp"
#include "linalg/det.hpp"
#include "linalg/rref.hpp"
#include "util/int128.hpp"
#include "util/require.hpp"

namespace ccmx::la {

using num::BigInt;
using num::Rational;
using util::i128;
using util::u128;

namespace {

std::uint64_t reduce_word(const num::Zp& field, std::int64_t v) {
  const auto mag = v < 0 ? 0 - static_cast<std::uint64_t>(v)
                         : static_cast<std::uint64_t>(v);
  const std::uint64_t r = field.reduce(mag);
  return v < 0 ? field.neg(r) : r;
}

std::uint64_t reduce_wide(const num::Zp& field, i128 v) {
  const u128 mag = v < 0 ? 0 - static_cast<u128>(v) : static_cast<u128>(v);
  const std::uint64_t r =
      field.horner(field.reduce(static_cast<std::uint64_t>(mag >> 64)),
                   static_cast<std::uint64_t>(mag));
  return v < 0 ? field.neg(r) : r;
}

std::size_t bit_width(u128 v) {
  const auto high = static_cast<std::uint64_t>(v >> 64);
  return high != 0 ? 64 + std::bit_width(high)
                   : std::bit_width(static_cast<std::uint64_t>(v));
}

std::vector<std::size_t> largest_first(std::vector<std::size_t> bits) {
  std::sort(bits.begin(), bits.end(), std::greater<>());
  return bits;
}

/// For each nonzero row (by_rows) or column of m's first cols columns,
/// ceil(bits(||line||^2) / 2).
std::vector<std::size_t> norm_bits(const IntMatrix& m, std::size_t cols,
                                   bool by_rows) {
  const std::size_t lines = by_rows ? m.rows() : cols;
  const std::size_t length = by_rows ? cols : m.rows();
  std::vector<std::size_t> bits;
  for (std::size_t a = 0; a < lines; ++a) {
    BigInt squares(0);
    for (std::size_t b = 0; b < length; ++b) {
      const BigInt& v = by_rows ? m(a, b) : m(b, a);
      if (!v.is_zero()) squares += v * v;
    }
    // ||line||^2 < 2^{bit_length}, so ||line|| < 2^{ceil(bit_length / 2)}.
    if (!squares.is_zero()) bits.push_back((squares.bit_length() + 1) / 2);
  }
  return largest_first(std::move(bits));
}

/// The same bits from words: squares below 2^126 summed in 192 bits.
std::vector<std::size_t> norm_bits(const WordMatrix& m, std::size_t cols,
                                   bool by_rows) {
  const std::size_t lines = by_rows ? m.rows() : cols;
  const std::size_t length = by_rows ? cols : m.rows();
  std::vector<std::size_t> bits;
  for (std::size_t a = 0; a < lines; ++a) {
    u128 low = 0;
    std::uint64_t high = 0;
    for (std::size_t b = 0; b < length; ++b) {
      const std::int64_t v = by_rows ? m(a, b) : m(b, a);
      const auto mag = v < 0 ? 0 - static_cast<std::uint64_t>(v)
                             : static_cast<std::uint64_t>(v);
      const u128 square = static_cast<u128>(mag) * mag;
      low += square;
      high += low < square ? 1 : 0;
    }
    const std::size_t length_bits =
        high != 0 ? 128 + std::bit_width(high) : bit_width(low);
    if (length_bits != 0) bits.push_back((length_bits + 1) / 2);
  }
  return largest_first(std::move(bits));
}

std::size_t top_sum(const std::vector<std::size_t>& bits, std::size_t order) {
  if (order > bits.size()) return 0;
  return std::accumulate(bits.begin(),
                         bits.begin() + static_cast<std::ptrdiff_t>(order),
                         std::size_t{0});
}

/// Lifting steps after which reconstruction with numerator and denominator
/// bound 2^minor_bits is unique: 61 x steps >= 2 minor_bits + 2 (so at
/// least one).
std::size_t step_cap(std::size_t minor_bits) {
  return (2 * minor_bits + 2 + kLadderPrimeBits - 1) / kLadderPrimeBits;
}

/// p^{-1} mod 2^128 for odd p, by Newton's iteration: p is its own inverse
/// mod 8, and each step doubles the number of correct low bits.
u128 inverse_mod_2_128(std::uint64_t p) {
  u128 inv = p;
  for (int i = 0; i < 6; ++i) inv *= 2 - p * inv;
  return inv;
}

/// A natural number as little-endian 64-bit limbs without leading zeros.
/// The reconstruction loops run on these in place: no BigInt temporaries.
using Nat = std::vector<std::uint64_t>;

void trim(Nat& a) {
  while (!a.empty() && a.back() == 0) a.pop_back();
}

Nat to_nat(const BigInt& v) {
  Nat out(v.limb_count());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = v.limb(i);
  return out;
}

std::size_t bit_length(const Nat& a) {
  return a.empty() ? 0 : 64 * (a.size() - 1) + std::bit_width(a.back());
}

int compare(const Nat& a, const Nat& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

/// a = a m + c.
void mul_add(Nat& a, std::uint64_t m, std::uint64_t c) {
  for (std::uint64_t& limb : a) {
    const u128 t = static_cast<u128>(limb) * m + c;
    limb = static_cast<std::uint64_t>(t);
    c = static_cast<std::uint64_t>(t >> 64);
  }
  if (c != 0) a.push_back(c);
}

/// a += q b.
void add_mul(Nat& a, const Nat& b, std::uint64_t q) {
  if (q == 0 || b.empty()) return;
  if (a.size() < b.size()) a.resize(b.size(), 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    const u128 t = static_cast<u128>(b[i]) * q + a[i] + carry;
    a[i] = static_cast<std::uint64_t>(t);
    carry = static_cast<std::uint64_t>(t >> 64);
  }
  for (std::size_t i = b.size(); carry != 0; ++i) {
    if (i == a.size()) a.push_back(0);
    a[i] += carry;
    carry = a[i] < carry ? 1 : 0;
  }
}

/// a -= q b, for q b <= a.
void sub_mul(Nat& a, const Nat& b, std::uint64_t q) {
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    const u128 t = static_cast<u128>(b[i]) * q + borrow;
    const auto low = static_cast<std::uint64_t>(t);
    borrow = static_cast<std::uint64_t>(t >> 64) + (a[i] < low ? 1 : 0);
    a[i] -= low;
  }
  for (std::size_t i = b.size(); borrow != 0; ++i) {
    CCMX_ASSERT(i < a.size());
    const std::uint64_t before = a[i];
    a[i] -= borrow;
    borrow = before < borrow ? 1 : 0;
  }
  trim(a);
}

/// Bits [shift, shift + 128) of a.
u128 window(const Nat& a, std::size_t shift) {
  const std::size_t at = shift / 64;
  const unsigned offset = shift % 64;
  const auto limb = [&](std::size_t i) -> u128 {
    return i < a.size() ? a[i] : 0;
  };
  if (offset == 0) return limb(at) | (limb(at + 1) << 64);
  return (limb(at) >> offset) | (limb(at + 1) << (64 - offset)) |
         (limb(at + 2) << (128 - offset));
}

/// One Euclid step on magnitudes: q = floor(r0 / r1), r0 -= q r1 and
/// t0 += q t1.  The quotient comes from the leading bits; multi-word
/// quotients, which are rare, go through BigInt.
void euclid_step(Nat& r0, const Nat& r1, Nat& t0, const Nat& t1) {
  const std::size_t b0 = bit_length(r0);
  const std::size_t b1 = bit_length(r1);
  if (b0 <= 128) {
    const u128 x = window(r0, 0);
    const u128 y = window(r1, 0);
    const u128 q = x / y;
    if ((q >> 64) == 0) {
      const u128 rem = x - q * y;
      r0 = {static_cast<std::uint64_t>(rem), static_cast<std::uint64_t>(rem >> 64)};
      trim(r0);
      add_mul(t0, t1, static_cast<std::uint64_t>(q));
      return;
    }
  } else if (b0 - b1 < 64) {
    // With y the top 64 bits of r1 and x the same bits of r0 on,
    // x / (y + 1) <= r0 / r1 < x / y + 2: a few corrections at most.
    const std::size_t shift = b1 - 64;
    const u128 x = window(r0, shift);
    const auto y = static_cast<std::uint64_t>(window(r1, shift));
    auto q = static_cast<std::uint64_t>(x / (static_cast<u128>(y) + 1));
    sub_mul(r0, r1, q);
    while (compare(r0, r1) >= 0) {
      sub_mul(r0, r1, 1);
      ++q;
    }
    add_mul(t0, t1, q);
    return;
  }
  const auto [q, rem] = BigInt::divmod(BigInt::from_limbs(r0, false),
                                       BigInt::from_limbs(r1, false));
  r0 = to_nat(rem);
  t0 = to_nat(BigInt::from_limbs(t0, false) +
              q * BigInt::from_limbs(t1, false));
}

/// Wang's rational reconstruction loop: Euclid on (m, v), v < m, tracking
/// the cofactor t_k of v (t_k v ≡ r_k mod m), stopped at the first
/// remainder r_k <= bound.  The t_k alternate in sign, so magnitudes add.
struct WangPair {
  Nat r;
  Nat t;  // |t_k| >= 1
  bool t_negative = false;
};

WangPair wang(Nat m, Nat v, const Nat& bound) {
  Nat t0;
  Nat t1{1};
  bool negative = false;  // the sign of t1
  while (!v.empty() && compare(v, bound) > 0) {
    euclid_step(m, v, t0, t1);
    std::swap(m, v);
    std::swap(t0, t1);
    negative = !negative;
  }
  return {std::move(v), std::move(t1), negative};
}

/// Dixon lifting of Y = B^{-1} R for the pivot block B = A[I, J] of an
/// echelon, w right-hand sides at once.  Digit k is B^{-1} R_k mod p,
/// through the L U factors, and R_{k+1} = (R_k - B Y_k) / p.  With |B| and
/// |R_0| below 2^b, every |R_k| stays below r 2^b and every partial sum
/// below r 2^b p, which lifting_fits keeps inside __int128.
class Dixon {
 public:
  /// rhs holds R_0, column-major: rhs[v r + i] is row i of column v.
  Dixon(const WordMatrix& a, const ModMatrix& lu, const Echelon& e,
        const num::Zp& field, std::size_t w, std::vector<i128> rhs)
      : field_(field),
        r_(e.rank),
        w_(w),
        factors_(r_ * r_),
        pivot_inv_(r_),
        block_(r_ * r_),
        residual_(std::move(rhs)),
        p_inverse_(inverse_mod_2_128(field.p())),
        modulus_{1} {
    CCMX_ASSERT(residual_.size() == r_ * w_ && field.p() % 2 == 1);
    for (std::size_t i = 0; i < r_; ++i) {
      for (std::size_t k = 0; k < r_; ++k) {
        factors_[i * r_ + k] = lu(i, e.pivot_cols[k]);
        block_[i * r_ + k] = a(e.row_order[i], e.pivot_cols[k]);
      }
      pivot_inv_[i] = field.fixed(field.inv(lu(i, e.pivot_cols[i])));
    }
  }

  /// One more p-adic digit of every column.
  void step() {
    const num::Zp f = field_;
    const std::size_t r = r_;
    for (std::size_t v = 0; v < w_; ++v) {
      digits_.resize(digits_.size() + r);
      std::uint64_t* y = digits_.data() + digits_.size() - r;
      i128* res = residual_.data() + v * r;
      for (std::size_t i = 0; i < r; ++i) y[i] = reduce_wide(f, res[i]);
      // L z = R_k (unit diagonal), then U y = z, row by row.
      for (std::size_t i = 1; i < r; ++i) {
        y[i] = f.sub(y[i], dot(f, factors_.data() + i * r, y, 0, i));
      }
      for (std::size_t k = r; k-- > 0;) {
        const std::uint64_t z =
            f.sub(y[k], dot(f, factors_.data() + k * r, y, k + 1, r));
        y[k] = f.mul(z, pivot_inv_[k]);
      }
      // R_{k+1} = (R_k - B y) / p: exact, so one multiply by p^{-1}.
      for (std::size_t i = 0; i < r; ++i) {
        i128 acc = res[i];
        const std::int64_t* b = block_.data() + i * r;
        for (std::size_t k = 0; k < r; ++k) {
          acc -= static_cast<i128>(b[k]) * static_cast<std::int64_t>(y[k]);
        }
        res[i] = static_cast<i128>(static_cast<u128>(acc) * p_inverse_);
      }
    }
    mul_add(modulus_, field_.p(), 0);
    ++steps_;
  }

  [[nodiscard]] std::size_t rank() const noexcept { return r_; }
  [[nodiscard]] std::size_t steps() const noexcept { return steps_; }
  [[nodiscard]] const num::Zp& field() const noexcept { return field_; }
  /// p^steps.
  [[nodiscard]] const Nat& modulus() const noexcept { return modulus_; }

  /// Row i of column v lifted so far: sum_k digit_k p^k, in [0, p^steps).
  [[nodiscard]] Nat value(std::size_t v, std::size_t i) const {
    Nat acc;
    acc.reserve(steps_);
    for (std::size_t s = steps_; s-- > 0;) {
      mul_add(acc, field_.p(), digits_[(s * w_ + v) * r_ + i]);
    }
    return acc;
  }

 private:
  /// sum_{k in [from, to)} row[k] y[k] mod p, reducing every 16 products
  /// (each below 2^124) so that the sum stays inside 128 bits.
  static std::uint64_t dot(const num::Zp& f, const std::uint64_t* row,
                           const std::uint64_t* y, std::size_t from,
                           std::size_t to) {
    std::uint64_t sum = 0;
    while (from < to) {
      const std::size_t end = std::min(to, from + 16);
      u128 part = 0;
      for (; from < end; ++from) part += static_cast<u128>(row[from]) * y[from];
      sum = f.add(sum, f.horner(f.reduce(static_cast<std::uint64_t>(part >> 64)),
                                static_cast<std::uint64_t>(part)));
    }
    return sum;
  }

  num::Zp field_;
  std::size_t r_;
  std::size_t w_;
  // L U of B, row-major: L(i, k) at i r + k for k < i, U(i, k) for k >= i.
  std::vector<std::uint64_t> factors_;
  std::vector<num::Zp::Fixed> pivot_inv_;  // 1 / U(k, k)
  std::vector<std::int64_t> block_;   // B row-major
  std::vector<i128> residual_;        // R_k, column-major
  std::vector<std::uint64_t> digits_;  // digit k of column v at (k w + v) r
  u128 p_inverse_;
  Nat modulus_;
  std::size_t steps_ = 0;
};

/// A lifted column as integers over one denominator: y = num / den.
struct Fraction {
  std::vector<BigInt> num;
  BigInt den;
};

/// v mod m mapped into (-m/2, m/2], for 0 <= v < m.
BigInt symmetric(Nat v, const Nat& m) {
  Nat twice = v;
  add_mul(twice, v, 1);
  if (compare(twice, m) <= 0) return BigInt::from_limbs(std::move(v), false);
  Nat below = m;
  sub_mul(below, v, 1);
  return BigInt::from_limbs(std::move(below), true);
}

/// Column v as num / den with den y ≡ num (mod p^steps), |num_i| <= bound
/// and 0 < den <= bound, den prime to p; nullopt when the digits so far
/// admit none.  The denominator grows by Wang reconstruction of den y_i
/// only where den y_i mod p^steps is not already small, so a column whose
/// entries share one denominator costs one reconstruction.
std::optional<Fraction> reconstruct(const Dixon& lift, std::size_t v,
                                    const Nat& bound) {
  const Nat& m = lift.modulus();
  const BigInt modulus = BigInt::from_limbs(m, false);
  const BigInt limit = BigInt::from_limbs(bound, false);
  const std::size_t r = lift.rank();
  Fraction out{std::vector<BigInt>(r), BigInt(1)};
  for (std::size_t i = 0; i < r; ++i) {
    Nat scaled = lift.value(v, i);
    if (out.den != BigInt(1)) {
      scaled = to_nat(BigInt::mod_floor(
          BigInt::from_limbs(std::move(scaled), false) * out.den, modulus));
    }
    out.num[i] = symmetric(scaled, m);
    if (out.num[i].abs() <= limit) continue;
    WangPair pair = wang(m, std::move(scaled), bound);
    if (compare(pair.t, bound) > 0) return std::nullopt;
    const BigInt t = BigInt::from_limbs(std::move(pair.t), false);
    if (t.mod_floor_u64(lift.field().p()) == 0) return std::nullopt;
    out.den *= t;
    if (out.den > limit) return std::nullopt;
    out.num[i] = BigInt::from_limbs(std::move(pair.r), pair.t_negative);
    // Earlier entries were small over the old denominator: scale them.
    for (std::size_t k = 0; k < i; ++k) out.num[k] *= t;
  }
  for (const BigInt& n : out.num) {
    if (n.abs() > limit) return std::nullopt;
  }
  return out;
}

/// An exact sum of word x integer products.  Each product is split into
/// 64-bit halves, added with its sign into a signed 128-bit accumulator
/// per limb; carries are resolved once, by is_zero().  Fewer than 2^62
/// terms keep every accumulator far inside 128 bits.
class ExactSum {
 public:
  explicit ExactSum(std::size_t widest_limbs) : acc_(widest_limbs + 2, 0) {}

  void clear() { std::fill(acc_.begin(), acc_.end(), 0); }

  /// sum += w x.  The paper's hard instances are mostly zeros, so a zero
  /// w returns at once.
  void add(std::int64_t w, const Nat& x, bool x_negative) {
    if (w == 0) return;
    const auto wmag = w < 0 ? 0 - static_cast<std::uint64_t>(w)
                            : static_cast<std::uint64_t>(w);
    CCMX_ASSERT(x.size() + 2 <= acc_.size());
    if ((w < 0) != x_negative) {
      for (std::size_t l = 0; l < x.size(); ++l) {
        const u128 product = static_cast<u128>(x[l]) * wmag;
        acc_[l] -= static_cast<std::uint64_t>(product);
        acc_[l + 1] -= static_cast<std::uint64_t>(product >> 64);
      }
    } else {
      for (std::size_t l = 0; l < x.size(); ++l) {
        const u128 product = static_cast<u128>(x[l]) * wmag;
        acc_[l] += static_cast<std::uint64_t>(product);
        acc_[l + 1] += static_cast<std::uint64_t>(product >> 64);
      }
    }
  }

  [[nodiscard]] bool is_zero() const {
    i128 carry = 0;
    for (const i128 limb : acc_) {
      const i128 t = limb + carry;
      if (static_cast<std::uint64_t>(t) != 0) return false;
      carry = t >> 64;
    }
    return carry == 0;
  }

 private:
  std::vector<i128> acc_;
};

/// A fraction's entries as magnitudes and signs, for ExactSum.
struct SignedNats {
  explicit SignedNats(const Fraction& x) {
    for (const BigInt& n : x.num) push(n);
    push(x.den);
  }
  void push(const BigInt& v) {
    mags.push_back(to_nat(v));
    negative.push_back(v.is_negative());
    widest = std::max(widest, mags.back().size());
  }
  std::vector<Nat> mags;  // num..., then den
  std::vector<bool> negative;
  std::size_t widest = 0;
};

enum class Check { kHolds, kWrongCandidate, kFalseDrop };

/// A x = 0 for x = (num on the pivot columns, den at f), row by row in
/// elimination order.  A failure in the first r rows means the candidate
/// is not A[I, J]^{-1}(-A[I, f]); a failure past them, with the pivot rows
/// satisfied, means the true solution is no kernel vector: rank(A) > r.
Check check_kernel(const WordMatrix& a, const Echelon& e, std::size_t f,
                   const Fraction& x) {
  const SignedNats terms(x);
  const std::size_t r = e.rank;
  ExactSum sum(terms.widest);
  for (std::size_t pos = 0; pos < a.rows(); ++pos) {
    const std::size_t i = e.row_order[pos];
    sum.clear();
    sum.add(a(i, f), terms.mags[r], terms.negative[r]);
    for (std::size_t k = 0; k < r; ++k) {
      sum.add(a(i, e.pivot_cols[k]), terms.mags[k], terms.negative[k]);
    }
    if (!sum.is_zero()) {
      return pos < e.rank ? Check::kWrongCandidate : Check::kFalseDrop;
    }
  }
  return Check::kHolds;
}

/// Work units of one reconstruction attempt after `steps` steps, against
/// 2 r^2 w per lifting step: a Wang reconstruction runs Euclid on
/// steps-limb numbers.
std::uint64_t attempt_work(std::size_t steps) {
  return std::uint64_t{576} * steps + std::uint64_t{36} * steps * steps;
}

/// The reconstruction bound after `steps` steps: 2^min(half, minor_bits),
/// where 2 bound^2 < 2^{61 steps} < p^steps keeps the reconstruction
/// unique.
Nat reconstruction_bound(std::size_t steps, std::size_t minor_bits) {
  const std::size_t half = (kLadderPrimeBits * steps - 2) / 2;
  const std::size_t bits = std::min(half, minor_bits);
  Nat bound(bits / 64 + 1, 0);
  bound.back() = std::uint64_t{1} << (bits % 64);
  return bound;
}

/// m's entries as words, read through entry(i, j); nullopt when one has
/// more than 63 bits.
template <class Entry>
std::optional<Words> words_of(std::size_t rows, std::size_t cols,
                              Entry&& entry) {
  Words out{WordMatrix(rows, cols)};
  std::uint64_t widest = 0;  // the OR of the magnitudes: same bit length
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      const BigInt& v = entry(i, j);
      const std::uint64_t mag = v.limb_count() == 0 ? 0 : v.limb(0);
      if (v.limb_count() > 1 || (mag >> 63) != 0) return std::nullopt;
      const auto w = static_cast<std::int64_t>(mag);
      out.m(i, j) = v.is_negative() ? -w : w;
      widest |= mag;
    }
  }
  out.entry_bits = std::bit_width(widest);
  return out;
}

}  // namespace

std::optional<Words> to_words(const IntMatrix& m) {
  return words_of(m.rows(), m.cols(),
                  [&m](std::size_t i, std::size_t j) -> const BigInt& {
                    return m(i, j);
                  });
}

std::optional<Words> to_words(const IntMatrix& a, const std::vector<BigInt>& b) {
  CCMX_REQUIRE(b.size() == a.rows(), "[a | b] shape mismatch");
  return words_of(a.rows(), a.cols() + 1,
                  [&](std::size_t i, std::size_t j) -> const BigInt& {
                    return j < a.cols() ? a(i, j) : b[i];
                  });
}

ModMatrix reduce_words(const WordMatrix& m, const num::Zp& field) {
  return map_matrix<std::uint64_t>(
      m, [&field](std::int64_t v) { return reduce_word(field, v); });
}

std::optional<Rational> rational_reconstruct(const BigInt& value,
                                             const BigInt& modulus,
                                             const BigInt& bound) {
  CCMX_REQUIRE(modulus > BigInt(1), "modulus must exceed 1");
  CCMX_REQUIRE(bound > BigInt(0), "bound must be positive");
  const BigInt v = BigInt::mod_floor(value, modulus);
  WangPair pair = wang(to_nat(modulus), to_nat(v), to_nat(bound.abs()));
  const BigInt num = BigInt::from_limbs(std::move(pair.r), pair.t_negative);
  const BigInt den = BigInt::from_limbs(std::move(pair.t), false);
  if (den > bound || num.abs() > bound) return std::nullopt;
  if (BigInt::gcd(num, den) != BigInt(1)) return std::nullopt;
  return Rational(num, den);
}

MinorBound::MinorBound(const IntMatrix& m, std::size_t cols)
    : cols_(norm_bits(m, cols, false)), rows_(norm_bits(m, cols, true)) {}

MinorBound::MinorBound(const WordMatrix& m, std::size_t cols)
    : cols_(norm_bits(m, cols, false)), rows_(norm_bits(m, cols, true)) {}

std::size_t MinorBound::bits(std::size_t order) const {
  return std::min(top_sum(cols_, order), top_sum(rows_, order));
}

bool lifting_fits(std::size_t entry_bits, std::size_t r) {
  const std::size_t log_r = r <= 1 ? 0 : std::bit_width(r - 1);
  return entry_bits + log_r + 62 < 127;
}

std::uint64_t predicted_lift_work(std::size_t rows, std::size_t cols,
                                  std::size_t r, std::size_t minor_bits) {
  const std::uint64_t w = cols - r;
  const std::uint64_t cap = step_cap(minor_bits);
  const std::uint64_t limbs = minor_bits / 64 + 2;
  // Steps up to the cap; then, per vector, its r + 1 entries built from
  // cap digits and checked against every row, limb by limb; and a fixed
  // cost for the vector's buffers and its first reconstruction.
  const std::uint64_t lifting = cap * (2 * r * r + 1) * w;
  const std::uint64_t entries = (r + 1) * (rows + 2 * cap) * limbs * w;
  return lifting + entries + 2048 * w;
}

KernelLift lift_kernel(const Words& words, const ModMatrix& lu,
                       const Echelon& e, const num::Zp& field,
                       std::size_t minor_bits,
                       std::vector<std::size_t> free_cols) {
  const WordMatrix& a = words.m;
  const std::size_t r = e.rank;
  CCMX_ASSERT(lifting_fits(words.entry_bits, r));
  KernelLift out;
  out.free_cols = std::move(free_cols);
  const std::size_t w = out.free_cols.size();
  std::vector<i128> rhs(r * w);
  for (std::size_t v = 0; v < w; ++v) {
    for (std::size_t i = 0; i < r; ++i) {
      rhs[v * r + i] = -static_cast<i128>(a(e.row_order[i], out.free_cols[v]));
    }
  }
  Dixon lift(a, lu, e, field, w, std::move(rhs));
  // Lift until every vector verifies, one shows a false drop, or the step
  // cap passes.  Attempts are spaced so that their predicted work roughly
  // matches the lifting work between them, and an attempt stops at the
  // first vector that does not verify yet.
  const std::size_t cap = step_cap(minor_bits);
  const std::uint64_t step_work = (2 * std::uint64_t{r} * r + 1) * w;
  std::vector<std::optional<Fraction>> verified(w);
  std::size_t pending = w;
  for (std::uint64_t since_attempt = 0; pending > 0;) {
    lift.step();
    since_attempt += step_work;
    const bool at_cap = lift.steps() >= cap;
    if (!at_cap && since_attempt < attempt_work(lift.steps())) continue;
    since_attempt = 0;
    const Nat bound = reconstruction_bound(lift.steps(), minor_bits);
    for (std::size_t v = 0; v < w; ++v) {
      if (verified[v]) continue;
      std::optional<Fraction> x = reconstruct(lift, v, bound);
      if (!x) break;
      const Check check = check_kernel(a, e, out.free_cols[v], *x);
      if (check == Check::kWrongCandidate) break;
      if (check == Check::kFalseDrop) {
        out.outcome = KernelLift::Outcome::kFalseDrop;
        out.steps = lift.steps();
        return out;
      }
      verified[v] = std::move(x);
      --pending;
    }
    if (pending > 0 && at_cap) break;
  }
  out.steps = lift.steps();
  if (pending > 0) return out;
  out.outcome = KernelLift::Outcome::kVerified;
  out.vectors.assign(w, std::vector<BigInt>(a.cols()));
  for (std::size_t v = 0; v < w; ++v) {
    std::vector<BigInt>& x = out.vectors[v];
    for (std::size_t k = 0; k < r; ++k) {
      x[e.pivot_cols[k]] = std::move(verified[v]->num[k]);
    }
    x[out.free_cols[v]] = std::move(verified[v]->den);
  }
  return out;
}

std::optional<std::vector<Rational>> solve_lifted(
    const IntMatrix& a, const std::vector<BigInt>& b) {
  CCMX_REQUIRE(a.is_square(), "solve_lifted needs a square system");
  CCMX_REQUIRE(b.size() == a.rows(), "solve_lifted shape mismatch");
  const std::size_t n = a.rows();
  if (n == 0) return std::vector<Rational>{};
  const std::optional<Words> words = to_words(a, b);
  if (!words || !lifting_fits(words->entry_bits, n)) {
    std::vector<Rational> rhs;
    rhs.reserve(n);
    for (const BigInt& v : b) rhs.emplace_back(v);
    return la::solve(to_rational(a), rhs);
  }
  // The first ladder prime at which a is nonsingular; one exists iff a is.
  // There a's columns take every pivot of [a | b], so b's column is free.
  const auto a_nonsingular = [n](const Echelon& e) {
    return e.rank == n && e.pivot_cols.back() < n;
  };
  std::uint64_t p = next_ladder_prime(0);
  ModMatrix lu = reduce_words(words->m, num::Zp(p));
  Echelon e = echelon(lu, num::Zp(p));
  if (!a_nonsingular(e) && is_singular(a)) return std::nullopt;
  while (!a_nonsingular(e)) {
    p = next_ladder_prime(p);
    lu = reduce_words(words->m, num::Zp(p));
    e = echelon(lu, num::Zp(p));
  }
  // Cramer: every numerator and the denominator are n x n minors of [a | b].
  KernelLift lift = lift_kernel(*words, lu, e, num::Zp(p),
                                MinorBound(words->m, n + 1).bits(n), {n});
  // At the cap the reconstruction is unique and every row is a pivot row,
  // so a miss there is a bug.
  CCMX_REQUIRE(lift.outcome == KernelLift::Outcome::kVerified,
               "no lifted solution at the Cramer cap");
  // a x_a + d b = 0 for the kernel vector (x_a, d): the solution is -x_a / d.
  std::vector<BigInt>& kernel = lift.vectors.front();
  std::vector<Rational> x;
  x.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    x.emplace_back(-std::move(kernel[j]), kernel[n]);
  }
  return x;
}

}  // namespace ccmx::la
