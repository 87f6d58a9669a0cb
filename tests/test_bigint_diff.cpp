// Randomized differential test for the two-state BigInt: every public
// operation is cross-checked against a deliberately naive base-2^32
// reference implementation over a value distribution that straddles the
// inline/heap promotion boundary (kInlineLimbs = 2 limbs of 64 bits), and
// the canonical-form invariant — operator== and hash() independent of how
// a value was produced — is exercised by building equal values through
// small-only and heap-crossing routes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bigint/bigint.hpp"
#include "util/int128.hpp"
#include "util/rng.hpp"

namespace {

using ccmx::num::BigInt;
using ccmx::util::u128;
using ccmx::util::Xoshiro256;

// ----------------------------------------------------------- naive reference
//
// Sign-magnitude over 32-bit digits with 64-bit intermediates: no shared
// code, no shared representation, and no clever fast paths — schoolbook
// everything, division by repeated subtraction of shifted divisors.

struct Ref {
  int sign = 0;  // -1, 0, +1
  std::vector<std::uint32_t> mag;  // little-endian, trimmed
};

void ref_trim(Ref& r) {
  while (!r.mag.empty() && r.mag.back() == 0) r.mag.pop_back();
  if (r.mag.empty()) r.sign = 0;
}

int ref_cmp_mag(const std::vector<std::uint32_t>& a,
                const std::vector<std::uint32_t>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

std::vector<std::uint32_t> ref_add_mag(const std::vector<std::uint32_t>& a,
                                       const std::vector<std::uint32_t>& b) {
  std::vector<std::uint32_t> out;
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < a.size() || i < b.size(); ++i) {
    std::uint64_t cur = carry;
    if (i < a.size()) cur += a[i];
    if (i < b.size()) cur += b[i];
    out.push_back(static_cast<std::uint32_t>(cur & 0xffffffffu));
    carry = cur >> 32;
  }
  if (carry != 0) out.push_back(static_cast<std::uint32_t>(carry));
  return out;
}

// assumes |a| >= |b|
std::vector<std::uint32_t> ref_sub_mag(const std::vector<std::uint32_t>& a,
                                       const std::vector<std::uint32_t>& b) {
  std::vector<std::uint32_t> out;
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::int64_t cur = static_cast<std::int64_t>(a[i]) - borrow;
    if (i < b.size()) cur -= b[i];
    borrow = 0;
    if (cur < 0) {
      cur += std::int64_t{1} << 32;
      borrow = 1;
    }
    out.push_back(static_cast<std::uint32_t>(cur));
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

Ref ref_add(const Ref& a, const Ref& b) {
  if (a.sign == 0) return b;
  if (b.sign == 0) return a;
  Ref out;
  if (a.sign == b.sign) {
    out.sign = a.sign;
    out.mag = ref_add_mag(a.mag, b.mag);
  } else {
    const int cmp = ref_cmp_mag(a.mag, b.mag);
    if (cmp == 0) return out;  // zero
    out.sign = cmp > 0 ? a.sign : b.sign;
    out.mag = cmp > 0 ? ref_sub_mag(a.mag, b.mag) : ref_sub_mag(b.mag, a.mag);
  }
  ref_trim(out);
  return out;
}

Ref ref_neg(Ref a) {
  a.sign = -a.sign;
  return a;
}

Ref ref_mul(const Ref& a, const Ref& b) {
  Ref out;
  if (a.sign == 0 || b.sign == 0) return out;
  out.sign = a.sign * b.sign;
  out.mag.assign(a.mag.size() + b.mag.size(), 0);
  for (std::size_t i = 0; i < a.mag.size(); ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < b.mag.size(); ++j) {
      const std::uint64_t cur = static_cast<std::uint64_t>(out.mag[i + j]) +
                                static_cast<std::uint64_t>(a.mag[i]) *
                                    b.mag[j] +
                                carry;
      out.mag[i + j] = static_cast<std::uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    out.mag[i + b.mag.size()] =
        static_cast<std::uint32_t>(carry & 0xffffffffu);
  }
  ref_trim(out);
  return out;
}

Ref ref_shl(const Ref& a, unsigned bits) {
  if (a.sign == 0) return a;
  Ref out = a;
  for (unsigned i = 0; i < bits / 32; ++i) {
    out.mag.insert(out.mag.begin(), 0);
  }
  for (unsigned i = 0; i < bits % 32; ++i) {
    out = ref_mul(out, Ref{1, {2}});
  }
  return out;
}

// Truncating division, remainder keeps the dividend's sign: shift-subtract
// long division over magnitudes, one bit at a time.
std::pair<Ref, Ref> ref_divmod(const Ref& a, const Ref& b) {
  Ref quot;
  Ref rem;
  if (a.sign == 0) return {quot, rem};
  std::size_t bits = a.mag.size() * 32;
  Ref abs_a{1, a.mag};
  const Ref abs_b{1, b.mag};
  Ref q;
  Ref r;
  for (std::size_t i = bits; i-- > 0;) {
    // r = 2r + bit_i(|a|); q = 2q (+1 when r >= |b|).
    r = ref_shl(r, 1);
    const std::uint32_t bit = (abs_a.mag[i / 32] >> (i % 32)) & 1u;
    if (bit != 0) r = ref_add(r, Ref{1, {1}});
    q = ref_shl(q, 1);
    if (ref_cmp_mag(r.mag, abs_b.mag) >= 0 && !r.mag.empty()) {
      r = ref_add(r, ref_neg(abs_b));
      q = ref_add(q, Ref{1, {1}});
    }
  }
  ref_trim(q);
  ref_trim(r);
  if (!q.mag.empty()) q.sign = a.sign * b.sign;
  if (!r.mag.empty()) r.sign = a.sign;
  return {q, r};
}

std::uint64_t ref_mod_word(const Ref& a, std::uint64_t m) {
  u128 acc = 0;
  for (std::size_t i = a.mag.size(); i-- > 0;) {
    acc = ((acc << 32) | a.mag[i]) % m;
  }
  return static_cast<std::uint64_t>(acc);
}

std::string ref_to_string(Ref a) {
  if (a.sign == 0) return "0";
  const bool negative = a.sign < 0;
  std::string digits;
  while (!a.mag.empty()) {
    // Single-word division by 10^9 yields nine decimal digits per round.
    std::uint64_t rem = 0;
    for (std::size_t i = a.mag.size(); i-- > 0;) {
      const std::uint64_t cur = (rem << 32) | a.mag[i];
      a.mag[i] = static_cast<std::uint32_t>(cur / 1000000000u);
      rem = cur % 1000000000u;
    }
    ref_trim(a);
    for (int d = 0; d < 9; ++d) {
      digits.push_back(static_cast<char>('0' + rem % 10));
      rem /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (negative) digits.push_back('-');
  return {digits.rbegin(), digits.rend()};
}

// --------------------------------------------------------- paired generation
//
// Builds the same value twice from one stream of 32-bit words: the BigInt
// through shift-and-add, the reference directly from the digit vector.

struct Pair {
  BigInt big;
  Ref ref;
};

Pair random_pair(Xoshiro256& rng, std::size_t words32) {
  Pair p;
  for (std::size_t i = 0; i < words32; ++i) {
    const std::uint64_t word = rng() & 0xffffffffu;
    p.big = (p.big << 32) + static_cast<std::int64_t>(word);
    p.ref.mag.insert(p.ref.mag.begin(),
                     static_cast<std::uint32_t>(word));
    p.ref.sign = 1;
  }
  ref_trim(p.ref);
  if (p.ref.sign != 0 && rng.coin()) {
    p.big = -p.big;
    p.ref.sign = -1;
  }
  return p;
}

// The promotion boundary sits at two 64-bit limbs == four 32-bit words;
// weight the distribution around it (0..8 words, centered at 3-5).
std::size_t boundary_words(Xoshiro256& rng) {
  return rng.below(5) + rng.below(5);
}

void expect_same(const BigInt& big, const Ref& ref, const char* what) {
  EXPECT_EQ(big.to_string(), ref_to_string(ref)) << what;
  // Canonical-form invariant: inline iff the value needs at most two limbs.
  EXPECT_EQ(big.is_small(), big.limb_count() <= BigInt::kInlineLimbs) << what;
}

class BigIntDiff : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BigIntDiff, AddSubMulAgainstReference) {
  Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    const Pair a = random_pair(rng, boundary_words(rng));
    const Pair b = random_pair(rng, boundary_words(rng));
    expect_same(a.big + b.big, ref_add(a.ref, b.ref), "add");
    expect_same(a.big - b.big, ref_add(a.ref, ref_neg(b.ref)), "sub");
    expect_same(a.big * b.big, ref_mul(a.ref, b.ref), "mul");
  }
}

TEST_P(BigIntDiff, DivModAgainstReference) {
  Xoshiro256 rng(GetParam() + 1000);
  for (int trial = 0; trial < 40; ++trial) {
    const Pair a = random_pair(rng, boundary_words(rng));
    Pair b = random_pair(rng, 1 + rng.below(5));
    if (b.ref.sign == 0) {
      b.big = BigInt(1);
      b.ref = Ref{1, {1}};
    }
    const auto [q, r] = BigInt::divmod(a.big, b.big);
    const auto [rq, rr] = ref_divmod(a.ref, b.ref);
    expect_same(q, rq, "quotient");
    expect_same(r, rr, "remainder");
    expect_same(a.big / b.big, rq, "operator/");
    expect_same(a.big % b.big, rr, "operator%");
    // Euclidean remainder: nonnegative, congruent mod |b|.
    const BigInt mf = BigInt::mod_floor(a.big, b.big);
    EXPECT_FALSE(mf.is_negative());
    expect_same(mf.is_zero() || !r.is_negative() ? r : mf - b.big.abs(), rr,
                "mod_floor congruence");
  }
}

TEST_P(BigIntDiff, ShiftsAgainstReference) {
  Xoshiro256 rng(GetParam() + 2000);
  for (int trial = 0; trial < 40; ++trial) {
    const Pair a = random_pair(rng, boundary_words(rng));
    const unsigned s = static_cast<unsigned>(rng.below(140));
    expect_same(a.big << s, ref_shl(a.ref, s), "shl");
    // Right shift == truncating division by 2^s on magnitudes.
    Ref pow2{1, {1}};
    pow2 = ref_shl(pow2, s);
    Ref expected = ref_divmod(Ref{1, a.ref.mag}, pow2).first;
    if (a.ref.sign < 0) expected.sign = -expected.sign;
    expect_same(a.big >> s, expected, "shr");
  }
}

TEST_P(BigIntDiff, WordOpsMatchBigIntOps) {
  Xoshiro256 rng(GetParam() + 3000);
  for (int trial = 0; trial < 60; ++trial) {
    const Pair a = random_pair(rng, boundary_words(rng));
    auto w = static_cast<std::int64_t>(rng());
    if (rng.below(8) == 0) w = INT64_MIN;  // the magnitude-negation edge
    const BigInt wb(w);

    BigInt sum = a.big;
    sum += w;
    EXPECT_EQ(sum, a.big + wb);
    BigInt diff = a.big;
    diff -= w;
    EXPECT_EQ(diff, a.big - wb);
    BigInt prod = a.big;
    prod *= w;
    EXPECT_EQ(prod, a.big * wb);
    EXPECT_EQ(a.big + w, a.big + wb);
    EXPECT_EQ(a.big - w, a.big - wb);
    EXPECT_EQ(a.big * w, a.big * wb);

    const Pair b = random_pair(rng, boundary_words(rng));
    BigInt fused = a.big;
    fused.add_mul(b.big, w);
    EXPECT_EQ(fused, a.big + b.big * wb);

    if (w != 0) {
      BigInt exact = a.big * wb;
      exact.div_exact_word(w);
      EXPECT_EQ(exact, a.big);
    }

    const std::uint64_t m = (rng() >> rng.below(40)) | 1u;
    EXPECT_EQ(a.big.mod_u64(m), ref_mod_word(a.ref, m));
    const std::uint64_t mf = a.big.mod_floor_u64(m);
    EXPECT_LT(mf, m);
    const std::uint64_t raw = ref_mod_word(a.ref, m);
    EXPECT_EQ(mf, a.ref.sign < 0 && raw != 0 ? m - raw : raw);
  }
}

TEST_P(BigIntDiff, AliasedOpsStayConsistent) {
  Xoshiro256 rng(GetParam() + 4000);
  for (int trial = 0; trial < 40; ++trial) {
    const Pair a = random_pair(rng, boundary_words(rng));
    BigInt x = a.big;
    x += x;
    expect_same(x, ref_add(a.ref, a.ref), "x += x");
    BigInt y = a.big;
    y *= y;
    expect_same(y, ref_mul(a.ref, a.ref), "y *= y");
    BigInt z = a.big;
    z -= z;
    EXPECT_TRUE(z.is_zero());
    BigInt f = a.big;
    f.add_mul(f, 3);
    expect_same(f, ref_mul(a.ref, Ref{1, {4}}), "f.add_mul(f, 3)");
  }
}

TEST_P(BigIntDiff, ComparisonsMatchReference) {
  Xoshiro256 rng(GetParam() + 5000);
  for (int trial = 0; trial < 60; ++trial) {
    const Pair a = random_pair(rng, boundary_words(rng));
    const Pair b = random_pair(rng, boundary_words(rng));
    const Ref d = ref_add(a.ref, ref_neg(b.ref));
    EXPECT_EQ(a.big == b.big, d.sign == 0);
    EXPECT_EQ(a.big < b.big, d.sign < 0);
    EXPECT_EQ(a.big > b.big, d.sign > 0);
  }
}

TEST_P(BigIntDiff, StringRoundTripAcrossBoundary) {
  Xoshiro256 rng(GetParam() + 6000);
  for (int trial = 0; trial < 60; ++trial) {
    const Pair a = random_pair(rng, boundary_words(rng));
    const std::string s = ref_to_string(a.ref);
    EXPECT_EQ(a.big.to_string(), s);
    EXPECT_EQ(BigInt::from_string(s), a.big);
  }
}

// Equal values must be indistinguishable no matter how they were computed:
// build the same value once through small-only arithmetic and once through a
// route that promotes to the heap and collapses back down.
TEST_P(BigIntDiff, RepresentationIndependenceAcrossPromotion) {
  Xoshiro256 rng(GetParam() + 7000);
  for (int trial = 0; trial < 60; ++trial) {
    const Pair small = random_pair(rng, 1 + rng.below(4));  // <= 2 limbs
    ASSERT_TRUE(small.big.is_small());
    const Pair wide = random_pair(rng, 6 + rng.below(4));   // > 2 limbs
    ASSERT_FALSE(wide.big.is_small());

    // (v + wide) - wide walks up through the heap and back down.
    const BigInt crossed = (small.big + wide.big) - wide.big;
    EXPECT_EQ(crossed, small.big);
    EXPECT_TRUE(crossed.is_small());
    EXPECT_EQ(crossed.hash(), small.big.hash());

    // A genuinely wide difference demotes to the identical inline form.
    const BigInt shrunk = wide.big - (wide.big - small.big);
    EXPECT_EQ(shrunk, small.big);
    EXPECT_TRUE(shrunk.is_small());
    EXPECT_EQ(shrunk.hash(), small.big.hash());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntDiff,
                         ::testing::Values(std::size_t{21}, std::size_t{42},
                                           std::size_t{63}, std::size_t{84}));

// Deterministic edges around the inline boundary and signed-word extremes.
TEST(BigIntDiffEdges, BoundaryConstants) {
  const BigInt two127 = BigInt::pow2(127);
  const BigInt two128 = BigInt::pow2(128);
  EXPECT_TRUE((two128 - BigInt(1)).is_small());   // exactly 128 bits
  EXPECT_FALSE(two128.is_small());                // 129 bits promotes
  EXPECT_TRUE((two128 - two127 - two127).is_zero());

  BigInt v = two128;
  v -= BigInt(1);
  EXPECT_TRUE(v.is_small());
  v += BigInt(1);
  EXPECT_FALSE(v.is_small());
  EXPECT_EQ(v >> 1, two127);

  BigInt min64(INT64_MIN);
  EXPECT_EQ(min64.to_string(), "-9223372036854775808");
  EXPECT_TRUE(min64.fits_int64());
  EXPECT_EQ(min64.to_int64(), INT64_MIN);
  min64 -= INT64_MIN;  // adds 2^63
  EXPECT_TRUE(min64.is_zero());

  BigInt fold;
  fold.add_mul(BigInt(INT64_MIN), -1);
  EXPECT_EQ(fold, BigInt::pow2(63));
}

// Exercised with and without tracing (and with CCMX_OBS=OFF counter stubs in
// the obs-off CI job): the arithmetic must not depend on the obs layer.
TEST(BigIntDiffEdges, HotLoopIsObsAgnostic) {
  BigInt acc;
  for (std::int64_t i = 1; i <= 1000; ++i) {
    acc.add_mul(BigInt(i), i);
  }
  // sum i^2 for 1..1000 = 333833500.
  EXPECT_EQ(acc.to_string(), "333833500");
  EXPECT_TRUE(acc.is_small());
}

}  // namespace
