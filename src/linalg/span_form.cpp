#include "linalg/span_form.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "util/require.hpp"

namespace ccmx::la {

using num::BigInt;

namespace {

// The integer steps of the elimination, one overload per entry type.  The
// int64 ones report an overflow by returning false, and never wrap; the
// BigInt ones cannot fail.

bool is_zero(std::int64_t v) { return v == 0; }
bool is_zero(const BigInt& v) { return v.is_zero(); }

/// out = a * b - c * d.
bool mul_sub(std::int64_t a, std::int64_t b, std::int64_t c, std::int64_t d,
             std::int64_t& out) {
  std::int64_t ab = 0;
  std::int64_t cd = 0;
  return !__builtin_mul_overflow(a, b, &ab) &&
         !__builtin_mul_overflow(c, d, &cd) &&
         !__builtin_sub_overflow(ab, cd, &out);
}
bool mul_sub(const BigInt& a, const BigInt& b, const BigInt& c,
             const BigInt& d, BigInt& out) {
  out = a * b - c * d;
  return true;
}

/// v = -v.
bool negate(std::int64_t& v) {
  return !__builtin_sub_overflow(std::int64_t{0}, v, &v);
}
bool negate(BigInt& v) {
  v = -v;
  return true;
}

/// v /= d, where d divides v.
bool div_exact(std::int64_t& v, std::int64_t d) {
  if (d == -1) return negate(v);  // INT64_MIN / -1 is the one overflow
  CCMX_ASSERT(v % d == 0);
  v /= d;
  return true;
}
bool div_exact(BigInt& v, const BigInt& d) {
  v = v.divide_exact(d);
  return true;
}

/// g = gcd(g, |v|), for g >= 0.
bool gcd_into(std::int64_t& g, std::int64_t v) {
  const std::uint64_t mag = v < 0 ? 0 - static_cast<std::uint64_t>(v)
                                  : static_cast<std::uint64_t>(v);
  const std::uint64_t out = std::gcd(static_cast<std::uint64_t>(g), mag);
  if (out > std::uint64_t{std::numeric_limits<std::int64_t>::max()}) {
    return false;
  }
  g = static_cast<std::int64_t>(out);
  return true;
}
bool gcd_into(BigInt& g, const BigInt& v) {
  g = BigInt::gcd(g, v);
  return true;
}

/// Fraction-free Gauss-Jordan on the rows x cols matrix a (row-major), in
/// place, followed by the form's normalisation.  Returns the rank r: rows
/// [0, r) of a then hold the form and the rest are zero.  nullopt when an
/// int64 step overflows.
template <class Int>
std::optional<std::size_t> eliminate(std::vector<Int>& a, std::size_t rows,
                                     std::size_t cols) {
  const auto at = [&a, cols](std::size_t i, std::size_t j) -> Int& {
    return a[i * cols + j];
  };
  Int prev(1);
  std::size_t lead = 0;
  for (std::size_t c = 0; c < cols && lead < rows; ++c) {
    std::size_t pivot = lead;
    while (pivot < rows && is_zero(at(pivot, c))) ++pivot;
    if (pivot == rows) continue;
    if (pivot != lead) {
      std::swap_ranges(&at(pivot, 0), &at(pivot, 0) + cols, &at(lead, 0));
    }
    const Int piv = at(lead, c);
    // Row i becomes (piv * row_i - a(i, c) * row_lead) / prev, exactly by
    // Sylvester's identity, so every pivot so far becomes piv.  The lead
    // row is zero left of c, so there the update only rescales by
    // piv / prev; rows below the lead are zero there too.  With unit
    // pivots (every Lemma 3.4 census block) nothing left of c changes, a
    // row with a(i, c) = 0 keeps its entries, and no division runs.
    const bool same_scale = piv == prev;
    const bool unit_prev = prev == Int(1);
    for (std::size_t i = 0; i < rows; ++i) {
      if (i == lead) continue;
      const Int f = at(i, c);
      if (same_scale && is_zero(f)) continue;
      for (std::size_t j = i < lead && !same_scale ? 0 : c + 1; j < cols;
           ++j) {
        if (j == c) continue;
        Int v{};
        if (!mul_sub(piv, at(i, j), f, at(lead, j), v)) return std::nullopt;
        if (!unit_prev && !div_exact(v, prev)) return std::nullopt;
        at(i, j) = std::move(v);
      }
      at(i, c) = Int();
    }
    prev = piv;
    ++lead;
  }
  // Rows [0, lead) are prev * RREF.  prev is one of their entries, so a
  // unit prev leaves content 1; otherwise divide the content out.  The
  // pivots then share prev's sign.
  const std::size_t count = lead * cols;
  if (!(prev == Int(1) || prev == Int(-1))) {
    Int g{};
    for (std::size_t t = 0; t < count; ++t) {
      if (!gcd_into(g, a[t])) return std::nullopt;
    }
    for (std::size_t t = 0; t < count; ++t) {
      if (!div_exact(a[t], g)) return std::nullopt;
    }
  }
  if (prev < Int()) {
    for (std::size_t t = 0; t < count; ++t) {
      if (!negate(a[t])) return std::nullopt;
    }
  }
  return lead;
}

/// The form by BigInt elimination of the rows x cols matrix a (m^T,
/// row-major): the fallback of both entries.
SpanForm wide_form(std::vector<BigInt> a, std::size_t rows, std::size_t cols) {
  SpanForm form;
  form.dim = cols;
  form.fallback = true;
  const std::optional<std::size_t> rank = eliminate(a, rows, cols);
  CCMX_ASSERT(rank.has_value());
  form.rank = *rank;
  a.resize(form.rank * cols);
  // The representation follows the entries, not the arithmetic that
  // computed them, so a form is keyed one way only.
  if (std::all_of(a.begin(), a.end(),
                  [](const BigInt& v) { return v.fits_int64(); })) {
    for (const BigInt& v : a) form.words.push_back(v.to_int64());
  } else {
    IntMatrix out(form.rank, cols);
    for (std::size_t t = 0; t < a.size(); ++t) {
      out(t / cols, t % cols) = std::move(a[t]);
    }
    form.wide = std::move(out);
  }
  return form;
}

}  // namespace

IntMatrix SpanForm::matrix() const {
  if (wide) return *wide;
  IntMatrix out(rank, dim);
  for (std::size_t i = 0; i < rank; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      out(i, j) = BigInt(words[i * dim + j]);
    }
  }
  return out;
}

SpanForm column_span_form(const std::vector<std::int64_t>& mt,
                          std::size_t rows, std::size_t cols) {
  CCMX_REQUIRE(mt.size() == rows * cols, "column_span_form: shape mismatch");
  std::vector<std::int64_t> words = mt;
  if (const std::optional<std::size_t> rank = eliminate(words, rows, cols)) {
    SpanForm form;
    form.dim = cols;
    form.rank = *rank;
    words.resize(form.rank * cols);
    form.words = std::move(words);
    return form;
  }
  return wide_form(std::vector<BigInt>(mt.begin(), mt.end()), rows, cols);
}

SpanForm column_span_form(const IntMatrix& m) {
  // Eliminate m^T: rows are m's columns.
  const std::size_t rows = m.cols();
  const std::size_t cols = m.rows();
  std::vector<std::int64_t> narrow(rows * cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      const BigInt& v = m(j, i);
      if (!v.fits_int64()) {
        std::vector<BigInt> wide(rows * cols);
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t c = 0; c < cols; ++c) wide[r * cols + c] = m(c, r);
        }
        return wide_form(std::move(wide), rows, cols);
      }
      narrow[i * cols + j] = v.to_int64();
    }
  }
  return column_span_form(narrow, rows, cols);
}

}  // namespace ccmx::la
