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

/// x (length n - 1) with its tail forced by E: the unit rows half..n-2 of
/// A give x[idx] = b_idx . u = E-row . w.  The head is left zero.
std::vector<BigInt> forced_tail(const ConstructionParams& p,
                                const la::IntMatrix& e) {
  const std::size_t half = p.half();
  const std::vector<BigInt> w = p.w_vector();
  std::vector<BigInt> x(p.n() - 1);
  for (std::size_t idx = half; idx + 1 < p.n(); ++idx) {
    BigInt acc;
    for (std::size_t t = 0; t < p.l(); ++t) acc += e(idx - half, t) * w[t];
    x[idx] = acc;
  }
  return x;
}

/// Shared spine of the scalar characterization: the dependency A x = B u
/// forces the tail of x through the unit rows and the head through the
/// triangular D-rows; returns the full forced x (length n - 1).
std::vector<BigInt> forced_x(const ConstructionParams& p,
                             const la::IntMatrix& c, const la::IntMatrix& d,
                             const la::IntMatrix& e) {
  const std::size_t half = p.half();
  const BigInt q(static_cast<std::int64_t>(p.q()));
  std::vector<BigInt> x = forced_tail(p, e);
  // D-rows half-1..0: x[idx] = D_idx . u_D - q x[idx+1] - c_idx . tail.
  // u_D[j] = (-q)^{n-2-j} for j < G.
  const std::vector<BigInt> u = p.u_vector();
  for (std::size_t idx = half; idx-- > 0;) {
    BigInt du;
    for (std::size_t j = 0; j < p.g(); ++j) du += d(idx, j) * u[j];
    BigInt value = du;
    if (idx + 1 <= half - 1) value -= q * x[idx + 1];
    for (std::size_t t = 0; t < half; ++t) value -= c(idx, t) * x[half + t];
    x[idx] = value;
  }
  return x;
}

}  // namespace

BigInt forced_x1(const ConstructionParams& p, const la::IntMatrix& c,
                 const la::IntMatrix& d, const la::IntMatrix& e) {
  return forced_x(p, c, d, e)[0];
}

bool restricted_singular(const ConstructionParams& p, const FreeParts& parts) {
  const std::vector<BigInt> u = p.u_vector();
  BigInt yu;
  for (std::size_t j = 0; j + 1 < p.n(); ++j) yu += parts.y[j] * u[j];
  return forced_x1(p, parts.c, parts.d, parts.e) == yu;
}

std::optional<FreeParts> lemma35_complete(const ConstructionParams& p,
                                          const la::IntMatrix& c,
                                          const la::IntMatrix& e) {
  const std::size_t n = p.n();
  const std::size_t half = p.half();
  const BigInt q(static_cast<std::int64_t>(p.q()));
  const BigInt& m = p.m();
  const std::vector<BigInt> x = forced_tail(p, e);

  // (-q)^L: u_D values are m' . (-q)^{G-1-j} with m' = (-q)^L.
  const BigInt neg_q_l =
      BigInt::pow(BigInt(-static_cast<std::int64_t>(p.q())),
                  util::narrow_cast<unsigned>(p.l()));

  // Two attempts: canonical residues in [0, m), then balanced residues in
  // (-m/2, m/2] — the latter only needed if a digit budget overflows.
  for (const bool balanced : {false, true}) {
    const auto reduce = [&](const BigInt& value) {
      BigInt r = BigInt::mod_floor(value, m);
      if (balanced && r + r > m) r -= m;
      return r;
    };
    // Heads of x, per the proof of Lemma 3.5(a).
    std::vector<BigInt> head = x;
    {
      BigInt ct;  // c_{half-1} . tail
      for (std::size_t t = 0; t < half; ++t) ct += c(half - 1, t) * x[half + t];
      head[half - 1] = reduce(-ct);
    }
    for (std::size_t idx = half - 1; idx-- > 0;) {
      BigInt ct;
      for (std::size_t t = 0; t < half; ++t) ct += c(idx, t) * x[half + t];
      head[idx] = reduce(-(q * head[idx + 1]) - ct);
    }

    // D rows: a_idx . x is a multiple of m; its quotient by (-q)^L is the
    // negabase value the D digits must realize.
    la::IntMatrix d(half, p.g());
    bool ok = true;
    for (std::size_t idx = 0; idx < half && ok; ++idx) {
      BigInt ax = head[idx];
      if (idx + 1 <= half - 1) ax += q * head[idx + 1];
      for (std::size_t t = 0; t < half; ++t) ax += c(idx, t) * x[half + t];
      const BigInt target = ax.divide_exact(neg_q_l);
      const auto digits = num::to_negabase(target, p.q(), p.g());
      if (!digits) {
        ok = false;
        break;
      }
      for (std::size_t j = 0; j < p.g(); ++j) {
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

la::SpanForm span_canonical(const ConstructionParams& p,
                            const la::IntMatrix& c) {
  return la::column_span_form(build_a(p, c));
}

la::IntMatrix c_instance(const ConstructionParams& p, std::uint64_t index) {
  const std::size_t cells = p.free_entries_c();
  la::IntMatrix c(p.half(), p.half());
  std::uint64_t rest = index;
  for (std::size_t cell = 0; cell < cells; ++cell) {
    c(cell / p.half(), cell % p.half()) =
        BigInt(static_cast<std::int64_t>(rest % p.q()));
    rest /= p.q();
  }
  CCMX_REQUIRE(rest == 0, "C instance index out of range");
  return c;
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
