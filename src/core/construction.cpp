#include "core/construction.hpp"

#include <cmath>

#include "bigint/negabase.hpp"
#include "linalg/rref.hpp"
#include "util/narrow.hpp"
#include "util/require.hpp"

namespace ccmx::core {

using num::BigInt;

namespace {

/// ceil(log_q n) computed exactly: smallest t with q^t >= n.
std::size_t ceil_log(std::uint64_t q, std::size_t n) {
  CCMX_REQUIRE(q >= 2, "ceil_log needs q >= 2");
  std::size_t t = 0;
  BigInt power(1);
  const BigInt target(static_cast<std::int64_t>(n));
  while (power < target) {
    power *= BigInt(static_cast<std::int64_t>(q));
    ++t;
  }
  return t;
}

}  // namespace

ConstructionParams::ConstructionParams(std::size_t n, unsigned k)
    : n_(n), k_(k) {
  CCMX_REQUIRE(n >= 3 && n % 2 == 1, "n must be odd and >= 3");
  CCMX_REQUIRE(k >= 2 && k <= 20, "k must be in [2, 20] (q = 2^k - 1 >= 3)");
  q_ = (std::uint64_t{1} << k) - 1;
  log_q_n_ = ceil_log(q_, n_);
  if (valid()) {
    m_ = BigInt::pow(BigInt(static_cast<std::int64_t>(q_)),
                     util::narrow_cast<unsigned>(l()));
  }
}

bool ConstructionParams::valid() const noexcept {
  return n_ >= 3 + log_q_n_ + 1;  // L >= 1
}

std::vector<BigInt> ConstructionParams::u_vector() const {
  std::vector<BigInt> u(n_ - 1);
  const BigInt neg_q(-static_cast<std::int64_t>(q_));
  BigInt power(1);
  for (std::size_t j = n_ - 1; j-- > 0;) {
    u[j] = power;  // u[j] = (-q)^{n-2-j}
    power *= neg_q;
  }
  return u;
}

std::vector<BigInt> ConstructionParams::w_vector() const {
  std::vector<BigInt> w(l());
  const BigInt neg_q(-static_cast<std::int64_t>(q_));
  BigInt power(1);
  for (std::size_t j = l(); j-- > 0;) {
    w[j] = power;  // w[j] = (-q)^{L-1-j}
    power *= neg_q;
  }
  return w;
}

FreeParts FreeParts::random(const ConstructionParams& p,
                            util::Xoshiro256& rng) {
  const auto digit = [&]() {
    return BigInt(static_cast<std::int64_t>(rng.below(p.q())));
  };
  FreeParts parts;
  parts.c = la::IntMatrix::generate(p.half(), p.half(),
                                    [&](std::size_t, std::size_t) { return digit(); });
  parts.d = la::IntMatrix::generate(p.half(), p.g(),
                                    [&](std::size_t, std::size_t) { return digit(); });
  parts.e = la::IntMatrix::generate(p.half(), p.l(),
                                    [&](std::size_t, std::size_t) { return digit(); });
  parts.y.resize(p.n() - 1);
  for (auto& value : parts.y) value = digit();
  return parts;
}

la::IntMatrix build_a(const ConstructionParams& p, const la::IntMatrix& c) {
  const std::size_t n = p.n();
  const std::size_t half = p.half();
  CCMX_REQUIRE(c.rows() == half && c.cols() == half, "C shape mismatch");
  la::IntMatrix a(n, n - 1);
  const BigInt q(static_cast<std::int64_t>(p.q()));
  // Unit diagonal on rows 0..n-2.
  for (std::size_t i = 0; i + 1 < n; ++i) a(i, i) = BigInt(1);
  // q on the superdiagonal, confined to the first `half` columns.
  for (std::size_t i = 0; i + 1 <= half - 1; ++i) a(i, i + 1) = q;
  // The free block C: rows 0..half-1, columns half..n-2.
  a.set_block(0, half, c);
  // Row n-1 = e_1^T: only the first column is nonzero (forces x_1 = y . u).
  a(n - 1, 0) = BigInt(1);
  return a;
}

la::IntMatrix build_b(const ConstructionParams& p, const la::IntMatrix& d,
                      const la::IntMatrix& e, const std::vector<BigInt>& y) {
  const std::size_t n = p.n();
  const std::size_t half = p.half();
  CCMX_REQUIRE(d.rows() == half && d.cols() == p.g(), "D shape mismatch");
  CCMX_REQUIRE(e.rows() == half && e.cols() == p.l(), "E shape mismatch");
  CCMX_REQUIRE(y.size() == n - 1, "y arity mismatch");
  la::IntMatrix b(n, n - 1);
  b.set_block(0, 0, d);            // D: high powers of (-q), multiples of m
  b.set_block(half, p.g(), e);     // E: the low L powers
  for (std::size_t j = 0; j + 1 < n; ++j) b(n - 1, j) = y[j];
  return b;
}

la::IntMatrix build_m(const ConstructionParams& p, const la::IntMatrix& a,
                      const la::IntMatrix& b) {
  const std::size_t n = p.n();
  CCMX_REQUIRE(a.rows() == n && a.cols() == n - 1, "A shape mismatch");
  CCMX_REQUIRE(b.rows() == n && b.cols() == n - 1, "B shape mismatch");
  la::IntMatrix m(2 * n, 2 * n);
  const BigInt q(static_cast<std::int64_t>(p.q()));
  m(0, 0) = BigInt(1);      // column 0 = e_0
  m(n - 1, n) = BigInt(1);  // column n = e_{n-1}
  // Top-right fixed block: 1 on the antidiagonal i + j = 2n - 1, q just
  // above it (i + j = 2n), within columns n+1..2n-1 and rows 0..n-1.
  for (std::size_t j = n + 1; j < 2 * n; ++j) {
    const std::size_t i_one = 2 * n - 1 - j;
    if (i_one < n) m(i_one, j) = BigInt(1);
    const std::size_t i_q = 2 * n - j;
    if (i_q < n) m(i_q, j) = q;
  }
  // Bottom half: A under columns 1..n-1, B under columns n+1..2n-1.
  m.set_block(n, 1, a);
  m.set_block(n, n + 1, b);
  return m;
}

la::IntMatrix build_m(const ConstructionParams& p, const FreeParts& parts) {
  return build_m(p, build_a(p, parts.c),
                 build_b(p, parts.d, parts.e, parts.y));
}

bool lemma32_singular(const ConstructionParams& p, const la::IntMatrix& a,
                      const la::IntMatrix& b) {
  const std::vector<BigInt> u = p.u_vector();
  const std::vector<BigInt> bu = multiply(b, u);
  std::vector<num::Rational> rhs;
  rhs.reserve(bu.size());
  for (const BigInt& v : bu) rhs.emplace_back(v);
  return la::in_column_span(la::to_rational(a), rhs);
}

namespace {

/// sum_t digit(t) (-q)^(len-1-t), the base-(-q) numeral of len digits,
/// most significant first, by Horner's rule: word steps on one
/// accumulator, in place.
template <class Digit>
BigInt negabase_value(std::uint64_t q, std::size_t len, Digit digit) {
  const auto neg_q = -static_cast<std::int64_t>(q);
  BigInt acc;
  for (std::size_t t = 0; t < len; ++t) {
    acc *= neg_q;
    acc += digit(t);
  }
  return acc;
}

/// x (length n - 1) with its tail forced by E: the unit rows half..n-2 of
/// A give x[idx] = b_idx . u = E-row . w, the E row's negabase value.  The
/// head is left zero.
std::vector<BigInt> forced_tail(const ConstructionParams& p,
                                const la::IntMatrix& e) {
  const std::size_t half = p.half();
  std::vector<BigInt> x(p.n() - 1);
  for (std::size_t r = 0; r < half; ++r) {
    x[half + r] = negabase_value(
        p.q(), p.l(), [&](std::size_t t) { return e(r, t).to_int64(); });
  }
  return x;
}

/// c_idx . tail, one word multiply-add per C digit.
BigInt c_dot_tail(const ConstructionParams& p, const la::IntMatrix& c,
                  std::size_t idx, const std::vector<BigInt>& x) {
  const std::size_t half = p.half();
  BigInt ct;
  for (std::size_t t = 0; t < half; ++t) {
    ct.add_mul(x[half + t], c(idx, t).to_int64());
  }
  return ct;
}

/// Shared spine of the scalar characterization: the dependency A x = B u
/// forces the tail of x through the unit rows and the head through the
/// triangular D-rows; returns the full forced x (length n - 1).
std::vector<BigInt> forced_x(const ConstructionParams& p,
                             const la::IntMatrix& c, const la::IntMatrix& d,
                             const la::IntMatrix& e) {
  const std::size_t half = p.half();
  const auto q = static_cast<std::int64_t>(p.q());
  std::vector<BigInt> x = forced_tail(p, e);
  // u_D[j] = (-q)^{n-2-j} = (-q)^L (-q)^{G-1-j} for j < G, so D_idx . u_D
  // is (-q)^L = (-1)^L m times the D row's negabase value.
  const BigInt neg_q_l = p.l() % 2 == 0 ? p.m() : -p.m();
  // D-rows half-1..0: x[idx] = D_idx . u_D - q x[idx+1] - c_idx . tail.
  for (std::size_t idx = half; idx-- > 0;) {
    BigInt value = negabase_value(
        p.q(), p.g(), [&](std::size_t j) { return d(idx, j).to_int64(); });
    value *= neg_q_l;
    if (idx + 1 < half) value.add_mul(x[idx + 1], -q);
    value -= c_dot_tail(p, c, idx, x);
    x[idx] = std::move(value);
  }
  return x;
}

}  // namespace

BigInt forced_x1(const ConstructionParams& p, const la::IntMatrix& c,
                 const la::IntMatrix& d, const la::IntMatrix& e) {
  return forced_x(p, c, d, e)[0];
}

bool restricted_singular(const ConstructionParams& p, const FreeParts& parts) {
  // y . u is y's negabase value: u[j] = (-q)^{n-2-j}.
  const BigInt yu = negabase_value(
      p.q(), p.n() - 1, [&](std::size_t j) { return parts.y[j].to_int64(); });
  return forced_x1(p, parts.c, parts.d, parts.e) == yu;
}

std::optional<FreeParts> lemma35_complete(const ConstructionParams& p,
                                          const la::IntMatrix& c,
                                          const la::IntMatrix& e) {
  const std::size_t n = p.n();
  const std::size_t half = p.half();
  const auto q = static_cast<std::int64_t>(p.q());
  const BigInt& m = p.m();
  const std::vector<BigInt> x = forced_tail(p, e);
  std::vector<BigInt> ct(half);  // ct[idx] = c_idx . tail
  for (std::size_t idx = 0; idx < half; ++idx) {
    ct[idx] = c_dot_tail(p, c, idx, x);
  }

  // Heads of x, per the proof of Lemma 3.5(a): head[idx] is v reduced mod
  // m, where v = -q head[idx+1] - ct[idx]; write head[idx] = v - m k.
  // Then a_idx . x = head[idx] + q head[idx+1] + ct[idx] = -m k, and the D
  // row must realize a_idx . x / (-q)^L = (-1)^(L+1) k, since
  // m = (-1)^L (-q)^L.
  const bool negate_k = p.l() % 2 == 0;
  // Two attempts: canonical residues in [0, m), then balanced residues in
  // (-m/2, m/2] — the latter only needed if a digit budget overflows.
  for (const bool balanced : {false, true}) {
    std::vector<BigInt> head(half);
    la::IntMatrix d(half, p.g());
    bool ok = true;
    for (std::size_t idx = half; idx-- > 0 && ok;) {
      BigInt v = -ct[idx];
      if (idx + 1 < half) v.add_mul(head[idx + 1], -q);
      auto [k, r] = BigInt::divmod(v, m);  // truncated: r has v's sign
      if (r.is_negative()) {
        r += m;
        k -= 1;
      }
      if (balanced && r + r > m) {
        r -= m;
        k += 1;
      }
      head[idx] = std::move(r);
      if (negate_k) k = -k;
      const auto digits = num::to_negabase(k, p.q(), p.g());
      ok = digits.has_value();
      for (std::size_t j = 0; ok && j < p.g(); ++j) {
        d(idx, j) = BigInt(static_cast<std::int64_t>((*digits)[p.g() - 1 - j]));
      }
    }
    if (!ok) continue;

    // y: y . u = x_1, i.e. digits of head[0] in base (-q) with n - 1 digits.
    const auto y_digits = num::to_negabase(head[0], p.q(), n - 1);
    if (!y_digits) continue;
    FreeParts parts;
    parts.c = c;
    parts.d = std::move(d);
    parts.e = e;
    parts.y.resize(n - 1);
    for (std::size_t j = 0; j + 1 < n; ++j) {
      parts.y[j] =
          BigInt(static_cast<std::int64_t>((*y_digits)[n - 2 - j]));
    }
    CCMX_ASSERT(restricted_singular(p, parts));
    return parts;
  }
  return std::nullopt;
}

void a_transpose_words(const ConstructionParams& p,
                       const std::vector<std::int64_t>& c,
                       std::vector<std::int64_t>& out) {
  const std::size_t n = p.n();
  const std::size_t half = p.half();
  CCMX_REQUIRE(c.size() == half * half, "C shape mismatch");
  // Row j of A^T is column j of A (build_a): the unit diagonal, q below
  // it in rows 1..half-1, C's column t in row half + t, and row 0's last
  // entry from A's row n-1 = e_1^T.
  out.assign((n - 1) * n, 0);
  const auto at = [&out, n](std::size_t j, std::size_t i) -> std::int64_t& {
    return out[j * n + i];
  };
  for (std::size_t j = 0; j + 1 < n; ++j) at(j, j) = 1;
  for (std::size_t j = 1; j < half; ++j) {
    at(j, j - 1) = static_cast<std::int64_t>(p.q());
  }
  for (std::size_t t = 0; t < half; ++t) {
    for (std::size_t i = 0; i < half; ++i) at(half + t, i) = c[i * half + t];
  }
  at(0, n - 1) = 1;
}

la::SpanForm span_canonical(const ConstructionParams& p,
                            const la::IntMatrix& c) {
  CCMX_REQUIRE(c.rows() == p.half() && c.cols() == p.half(),
               "C shape mismatch");
  std::vector<std::int64_t> digits;
  for (const BigInt& v : c.data()) digits.push_back(v.to_int64());
  std::vector<std::int64_t> at;
  a_transpose_words(p, digits, at);
  return la::column_span_form(at, p.n() - 1, p.n());
}

void c_instance_digits(const ConstructionParams& p, std::uint64_t index,
                       std::vector<std::int64_t>& out) {
  out.resize(p.free_entries_c());
  std::uint64_t rest = index;
  for (std::int64_t& digit : out) {
    digit = static_cast<std::int64_t>(rest % p.q());
    rest /= p.q();
  }
  CCMX_REQUIRE(rest == 0, "C instance index out of range");
}

la::IntMatrix c_instance(const ConstructionParams& p, std::uint64_t index) {
  std::vector<std::int64_t> digits;
  c_instance_digits(p, index, digits);
  return la::IntMatrix::generate(
      p.half(), p.half(), [&](std::size_t i, std::size_t t) {
        return BigInt(digits[i * p.half() + t]);
      });
}

FreeParts dey_instance(const ConstructionParams& p, const la::IntMatrix& c,
                       std::uint64_t index) {
  FreeParts parts;
  parts.c = c;
  parts.d = la::IntMatrix(p.half(), p.g());
  parts.e = la::IntMatrix(p.half(), p.l());
  parts.y.assign(p.n() - 1, BigInt(0));
  std::uint64_t rest = index;
  const auto next_digit = [&]() {
    const std::uint64_t digit = rest % p.q();
    rest /= p.q();
    return BigInt(static_cast<std::int64_t>(digit));
  };
  for (std::size_t i = 0; i < p.half(); ++i) {
    for (std::size_t j = 0; j < p.g(); ++j) parts.d(i, j) = next_digit();
  }
  for (std::size_t i = 0; i < p.half(); ++i) {
    for (std::size_t j = 0; j < p.l(); ++j) parts.e(i, j) = next_digit();
  }
  for (std::size_t j = 0; j + 1 < p.n(); ++j) parts.y[j] = next_digit();
  CCMX_REQUIRE(rest == 0, "(D,E,y) instance index out of range");
  return parts;
}

}  // namespace ccmx::core
