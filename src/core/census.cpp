#include "core/census.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <utility>

#include "bigint/negabase.hpp"
#include "core/census_model.hpp"
#include "obs/obs.hpp"
#include "obs/progress.hpp"
#include "util/int128.hpp"
#include "linalg/rref.hpp"
#include "util/narrow.hpp"
#include "util/parallel.hpp"
#include "util/require.hpp"
#include "util/sweep.hpp"

namespace ccmx::core {

using num::BigInt;
using num::Rational;
using util::i128;

namespace {

/// log_q of a BigInt (0 when not positive), stable for arbitrarily large
/// values: above 62 bits only the top 53 reach the double.
double log_base_q(const BigInt& value, std::uint64_t q) {
  if (value.signum() <= 0) return 0.0;
  const std::size_t bits = value.bit_length();
  const unsigned drop = bits <= 62 ? 0 : util::narrow_cast<unsigned>(bits - 53);
  return (std::log2(static_cast<double>((value >> drop).to_int64())) + drop) /
         std::log2(static_cast<double>(q));
}

/// floor(a / b) and ceil(a / b) for b > 0 (`/` truncates toward zero).
template <class Int>
Int div_floor(const Int& a, const Int& b) {
  const Int quot = a / b;
  return quot * b > a ? quot - 1 : quot;
}

template <class Int>
Int div_ceil(const Int& a, const Int& b) {
  const Int quot = a / b;
  return quot * b < a ? quot + 1 : quot;
}

/// v on the model's integer type.  The i128 gate bounds every chain value
/// below 2^120, so its magnitude is at most two limbs.
template <class Int>
Int to_int(const BigInt& v) {
  if constexpr (std::is_same_v<Int, BigInt>) {
    return v;
  } else {
    static_assert(BigInt::kLimbBits == 64,
                  "an __int128 packs exactly two BigInt limbs");
    CCMX_ASSERT(v.bit_length() <= 127);
    util::u128 mag = 0;
    for (std::size_t i = v.limb_count(); i-- > 0;) {
      mag = (mag << BigInt::kLimbBits) | v.limb(i);
    }
    const auto out = static_cast<i128>(mag);
    return v.is_negative() ? -out : out;
  }
}

/// Exact sum of interval counts: a u64 word that spills into a BigInt at
/// 2^62.  Per-worker tallies fold to the same total for every chunking.
struct Tally {
  std::uint64_t word = 0;
  BigInt spill;

  void add(i128 count) {  // < 2^62: the i128 gate bounds q^G far below
    word += static_cast<std::uint64_t>(count);
    if (word >= std::uint64_t{1} << 62) {
      spill += static_cast<std::int64_t>(std::exchange(word, 0));
    }
  }
  void add(const BigInt& count) { spill += count; }
  void add(const Tally& other) { spill += other.total(); }
  BigInt total() const { return spill + static_cast<std::int64_t>(word); }
};

const obs::Counter g_census_evaluations("census.evaluations");
const obs::Counter g_census_exact("census.exact_sweeps");
const obs::Counter g_census_sampled("census.sampled_sweeps");
const obs::Counter g_span_instances("census.span_instances");
const obs::Counter g_span_forms("census.span_forms");

}  // namespace

BigInt total_rows(const ConstructionParams& p) {
  return BigInt::pow(BigInt(static_cast<std::int64_t>(p.q())),
                     util::narrow_cast<unsigned>(p.free_entries_c()));
}

BigInt total_columns(const ConstructionParams& p) {
  return BigInt::pow(BigInt(static_cast<std::int64_t>(p.q())),
                     util::narrow_cast<unsigned>(p.free_entries_dey()));
}

template <class Int>
ShiftModel<Int>::ShiftModel(const ConstructionParams& p,
                            const la::IntMatrix& c)
    : half_(p.half()),
      l_(p.l()),
      g_(p.g()),
      q_(static_cast<std::int64_t>(p.q())) {
  CCMX_REQUIRE(p.valid(), "invalid construction parameters");
  for (const BigInt& v : p.w_vector()) w_.push_back(to_int<Int>(v));
  for (const BigInt& v : p.u_vector()) u_.push_back(to_int<Int>(v));
  for (std::size_t i = 0; i < half_; ++i) {
    for (std::size_t t = 0; t < half_; ++t) c_.push_back(to_int<Int>(c(i, t)));
  }
  // x_0 = (-q)^L t - shift, where t is D_0's G-digit negabase value, must
  // lie in the (n-1)-digit interval.  Counting -t instead of t when
  // (-q)^L < 0 keeps the step positive.
  const BigInt neg_q_l = BigInt::pow(BigInt(-static_cast<std::int64_t>(p.q())),
                                     util::narrow_cast<unsigned>(l_));
  const num::NegabaseRange r_g = num::negabase_range(p.q(), g_);
  const num::NegabaseRange r_y = num::negabase_range(p.q(), p.n() - 1);
  const bool flip = neg_q_l.is_negative();
  step_ = to_int<Int>(flip ? -neg_q_l : neg_q_l);
  t_lo_ = to_int<Int>(flip ? -r_g.hi : r_g.lo);
  t_hi_ = to_int<Int>(flip ? -r_g.lo : r_g.hi);
  y_lo_ = to_int<Int>(r_y.lo);
  y_hi_ = to_int<Int>(r_y.hi);
  // coef[p] = chain(e_p), so dot and step agree with chain by construction.
  std::vector<std::uint32_t> unit(half_ * l_ + (half_ - 1) * g_, 0);
  std::vector<Int> x(p.n() - 1);
  for (std::size_t d = 0; d < unit.size(); ++d) {
    unit[d] = 1;
    coef_.push_back(chain(unit, x));
    unit[d] = 0;
  }
}

template <class Int>
Int ShiftModel<Int>::chain(const std::vector<std::uint32_t>& dv,
                           std::vector<Int>& x) const {
  // Tails x[half..n-2] from the E rows.
  std::size_t pos = 0;
  for (std::size_t r = 0; r < half_; ++r) {
    Int acc{};
    for (std::size_t t = 0; t < l_; ++t) {
      acc += w_[t] * static_cast<std::int64_t>(dv[pos++]);
    }
    x[half_ + r] = acc;
  }
  // Heads x[half-1] .. x[1] from D rows half-1 .. 1 (stored in row order).
  for (std::size_t idx = half_; idx-- > 1;) {
    Int value{};
    for (std::size_t j = 0; j < g_; ++j) {
      value += u_[j] * static_cast<std::int64_t>(dv[pos + (idx - 1) * g_ + j]);
    }
    if (idx + 1 < half_) value -= q_ * x[idx + 1];
    for (std::size_t t = 0; t < half_; ++t) {
      value -= c_[idx * half_ + t] * x[half_ + t];
    }
    x[idx] = value;
  }
  Int shift = q_ * x[1];
  for (std::size_t t = 0; t < half_; ++t) shift += c_[t] * x[half_ + t];
  return shift;
}

template <class Int>
Int ShiftModel<Int>::dot(const std::vector<std::uint32_t>& dv) const {
  Int shift{};
  for (std::size_t d = 0; d < coef_.size(); ++d) {
    if (dv[d] != 0) shift += coef_[d] * static_cast<std::int64_t>(dv[d]);
  }
  return shift;
}

template <class Int>
void ShiftModel<Int>::step(Int& shift, std::size_t pos, std::uint32_t old_d,
                           std::uint32_t new_d) const {
  shift += coef_[pos] * (static_cast<std::int64_t>(new_d) -
                         static_cast<std::int64_t>(old_d));
}

template <class Int>
Int ShiftModel<Int>::count(const Int& shift) const {
  const Int lo = std::max(div_ceil(y_lo_ + shift, step_), t_lo_);
  const Int hi = std::min(div_floor(y_hi_ + shift, step_), t_hi_);
  return hi < lo ? Int{} : hi - lo + 1;
}

template <class Int>
RowCensus count_row(const ConstructionParams& p, const la::IntMatrix& c,
                    const CensusOptions& options, util::Xoshiro256& rng) {
  const ShiftModel<Int> model(p, c);
  const std::uint64_t q = p.q();
  const std::size_t digits = model.digits();
  RowCensus census;
  census.columns = total_columns(p);
  census.log_q_columns = log_base_q(census.columns, q);
  const std::optional<std::uint64_t> space =
      util::digit_space_within(q, digits, options.budget);
  census.exact = space.has_value();

  const obs::ScopedSpan span("row_census");
  if (census.exact) {
    obs::ProgressMeter progress("row_census[exact]", *space);
    const bool delta = options.delta;
    struct SweepState {
      Int shift{};
      std::vector<Int> x;  // recompute scratch
      Tally ones;
      std::uint64_t evals = 0;
    };
    const auto states = util::sweep_digits(
        q, digits,
        [&] {
          SweepState st;
          if (!delta) st.x.assign(p.n() - 1, Int{});
          return st;
        },
        [&](SweepState& st, const std::vector<std::uint32_t>& dv) {
          if (delta) st.shift = model.dot(dv);
        },
        [&](SweepState& st, std::size_t pos, std::uint32_t old_d,
            std::uint32_t new_d) {
          if (delta) model.step(st.shift, pos, old_d, new_d);
        },
        [&](SweepState& st, const std::vector<std::uint32_t>& dv) {
          st.ones.add(model.count(delta ? st.shift : model.chain(dv, st.x)));
        },
        [&](SweepState& st, std::uint64_t items) {
          st.evals += items;
          progress.tick(items);
        });
    Tally ones;
    for (const SweepState& st : states) {
      ones.add(st.ones);
      census.evaluations += st.evals;
    }
    census.ones = ones.total();
  } else {
    CCMX_REQUIRE(options.samples >= 1,
                 "row_census: q^digits exceeds the budget, so the sampled "
                 "census needs samples >= 1");
    obs::ProgressMeter progress("row_census[sampled]", options.samples);
    // One base draw from the caller's stream seeds a per-sample generator,
    // so sample s sees the same digits no matter which worker runs it.
    const std::uint64_t base_seed = rng();
    struct SampleAcc {
      std::vector<std::uint32_t> dv;
      Tally sum;
      std::uint64_t evals = 0;
    };
    const SampleAcc total = util::parallel_reduce<SampleAcc>(
        0, options.samples,
        [&] {
          SampleAcc acc;
          acc.dv.assign(digits, 0);
          return acc;
        },
        [&](SampleAcc& acc, std::size_t s) {
          util::Xoshiro256 draw(base_seed +
                                0x9e3779b97f4a7c15ULL *
                                    (static_cast<std::uint64_t>(s) + 1));
          for (auto& digit : acc.dv) {
            digit = util::narrow_cast<std::uint32_t>(draw.below(q));
          }
          acc.sum.add(model.count(model.dot(acc.dv)));
          ++acc.evals;
          progress.tick();
        },
        [](SampleAcc& into, const SampleAcc& acc) {
          into.sum.add(acc.sum);
          into.evals += acc.evals;
        });
    // ones ~ q^digits * mean(count).
    census.ones = BigInt::pow(BigInt(static_cast<std::int64_t>(q)),
                              util::narrow_cast<unsigned>(digits)) *
                  total.sum.total() /
                  BigInt(static_cast<std::int64_t>(options.samples));
    census.evaluations = total.evals;
  }
  if (obs::enabled()) {
    g_census_evaluations.add(census.evaluations);
    (census.exact ? g_census_exact : g_census_sampled).add();
  }
  census.log_q_ones = log_base_q(census.ones, q);
  return census;
}

template class ShiftModel<i128>;
template class ShiftModel<BigInt>;
template RowCensus count_row<i128>(const ConstructionParams&,
                                   const la::IntMatrix&, const CensusOptions&,
                                   util::Xoshiro256&);
template RowCensus count_row<BigInt>(const ConstructionParams&,
                                     const la::IntMatrix&,
                                     const CensusOptions&, util::Xoshiro256&);

RowCensus row_census(const ConstructionParams& p, const la::IntMatrix& c,
                     const CensusOptions& options, util::Xoshiro256& rng) {
  // Every chain quantity is bounded by ~n * q^n, so i128 is exact whenever
  // n * (k + 1) + 20 < 120 bits.
  return p.n() * (p.k() + 1) + 20 < 120 ? count_row<i128>(p, c, options, rng)
                                        : count_row<BigInt>(p, c, options, rng);
}

RowCensus row_census(const ConstructionParams& p, const la::IntMatrix& c,
                     std::uint64_t budget, std::size_t samples,
                     util::Xoshiro256& rng) {
  CensusOptions options;
  options.budget = budget;
  options.samples = samples;
  return row_census(p, c, options, rng);
}

Lemma35Bounds lemma35_bounds(const ConstructionParams& p) {
  Lemma35Bounds bounds{};
  bounds.upper_exponent =
      static_cast<double>(p.n()) * static_cast<double>(p.n()) / 2.0;
  bounds.lower_exponent =
      static_cast<double>(p.half()) * static_cast<double>(p.l());
  return bounds;
}

namespace {

void append_entry_key(std::string& out, const BigInt& v) {
  v.append_key_bytes(out);
}

void append_entry_key(std::string& out, const Rational& v) {
  v.num().append_key_bytes(out);  // canonical after reduction
  v.den().append_key_bytes(out);
}

/// Canonical byte key of a matrix: dims + entry key bytes.  Cheap compared
/// to decimal to_string() (which is quadratic in the magnitude), and
/// injective because BigInt::append_key_bytes is.
template <class Matrix>
void append_matrix_key(std::string& out, const Matrix& m) {
  for (const std::size_t dim : {m.rows(), m.cols()}) {
    for (unsigned shift = 0; shift < 32; shift += 8) {
      out.push_back(std::bit_cast<char>(static_cast<unsigned char>(
          static_cast<std::uint64_t>(dim) >> shift)));
    }
  }
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) append_entry_key(out, m(i, j));
  }
}

}  // namespace

SpanCensus lemma34_census(const ConstructionParams& p,
                          std::uint64_t max_instances,
                          util::Xoshiro256& rng) {
  const obs::ScopedSpan span("lemma34_census");
  SpanCensus census;
  using KeySet = std::unordered_set<std::string>;
  const auto canonical_key = [&p](const la::IntMatrix& cm) {
    std::string key;
    append_matrix_key(key, span_canonical(p, cm));
    return key;
  };
  const auto merge = [](KeySet& into, const KeySet& from) {
    into.insert(from.begin(), from.end());
  };
  if (const std::optional<std::uint64_t> total = util::digit_space_within(
          p.q(), p.free_entries_c(), max_instances)) {
    census.exhaustive = true;
    obs::ProgressMeter progress("lemma34_census", *total);
    const KeySet forms = util::parallel_reduce<KeySet>(
        0, *total, [] { return KeySet{}; },
        [&](KeySet& set, std::size_t index) {
          set.insert(canonical_key(
              c_instance(p, static_cast<std::uint64_t>(index))));
          progress.tick();
        },
        merge);
    census.tested = *total;
    census.distinct = forms.size();
  } else {
    // Per-trial derived generators keep the sampled census independent of
    // the worker that runs each trial; duplicate C draws are removed when
    // the per-worker key sets merge, matching the sequential dup-skip.
    const std::uint64_t base_seed = rng();
    struct Acc {
      KeySet seen_c;
      KeySet forms;
    };
    obs::ProgressMeter progress("lemma34_census", max_instances);
    const Acc acc = util::parallel_reduce<Acc>(
        0, static_cast<std::size_t>(max_instances), [] { return Acc{}; },
        [&](Acc& a, std::size_t trial) {
          util::Xoshiro256 draw(
              base_seed +
              0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(trial) + 1));
          const FreeParts parts = FreeParts::random(p, draw);
          progress.tick();
          std::string c_key;
          append_matrix_key(c_key, parts.c);
          if (!a.seen_c.insert(std::move(c_key)).second) return;  // dup C
          a.forms.insert(canonical_key(parts.c));
        },
        [&merge](Acc& into, const Acc& a) {
          merge(into.seen_c, a.seen_c);
          merge(into.forms, a.forms);
        });
    census.tested = acc.seen_c.size();
    census.distinct = acc.forms.size();
  }
  if (obs::enabled()) {
    g_span_instances.add(census.tested);
    g_span_forms.add(census.distinct);
  }
  return census;
}

std::vector<std::size_t> span_intersection_profile(const ConstructionParams& p,
                                                   std::size_t count,
                                                   util::Xoshiro256& rng) {
  std::vector<std::size_t> dims;
  // Maintain a generator matrix of the running intersection.
  la::RatMatrix intersection;  // columns generate the intersection
  for (std::size_t i = 0; i < count; ++i) {
    const FreeParts parts = FreeParts::random(p, rng);
    const la::RatMatrix a = la::to_rational(build_a(p, parts.c));
    if (i == 0) {
      intersection = a;
    } else {
      // span(G) ∩ span(A) = { G x : [G | -A][x; z] = 0 }.
      const la::RatMatrix stacked =
          intersection.augment(la::RatMatrix(a.rows(), a.cols()) - a);
      const auto kernel = la::nullspace(stacked);
      if (kernel.empty()) {
        intersection = la::RatMatrix(a.rows(), 0);
      } else {
        la::RatMatrix gens(a.rows(), kernel.size());
        for (std::size_t kcol = 0; kcol < kernel.size(); ++kcol) {
          for (std::size_t r = 0; r < a.rows(); ++r) {
            Rational acc(0);
            for (std::size_t gcol = 0; gcol < intersection.cols(); ++gcol) {
              acc += intersection(r, gcol) * kernel[kcol][gcol];
            }
            gens(r, kcol) = acc;
          }
        }
        intersection = gens;
      }
    }
    dims.push_back(intersection.cols() == 0 ? 0 : la::rank(intersection));
  }
  return dims;
}

}  // namespace ccmx::core
