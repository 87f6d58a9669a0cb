#include "core/census.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <type_traits>
#include <utility>

#include "bigint/negabase.hpp"
#include "core/census_model.hpp"
#include "obs/obs.hpp"
#include "obs/progress.hpp"
#include "linalg/rref.hpp"
#include "linalg/span_form.hpp"
#include "util/int128.hpp"
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

/// v on the model's integer type.  The gates (model_int) bound every chain
/// value below 2^56 on int64 and 2^120 on i128, so on i128 its magnitude
/// is at most two limbs.
template <class Int>
Int to_int(const BigInt& v) {
  if constexpr (std::is_same_v<Int, BigInt>) {
    return v;
  } else if constexpr (std::is_same_v<Int, std::int64_t>) {
    return v.to_int64();  // checks the fit
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

/// v (|v| < 2^63) as int64.
template <class Int>
std::int64_t to_i64(const Int& v) {
  if constexpr (std::is_same_v<Int, BigInt>) {
    return v.to_int64();
  } else {
    return static_cast<std::int64_t>(v);
  }
}

/// The type of a sum of interval counts times histogram cells, up to
/// q^digits q^G < 2^126: i128 on the machine-word models.
template <class Int>
using WideSum = std::conditional_t<std::is_same_v<Int, BigInt>, BigInt, i128>;

/// u as a WideSum.
template <class Int>
WideSum<Int> wide_from_u64(std::uint64_t u) {
  if constexpr (std::is_same_v<Int, BigInt>) {
    return BigInt::from_limbs({u}, false);
  } else {
    return static_cast<i128>(u);
  }
}

/// v as a BigInt: one conversion per census on the machine-word models.
template <class Int>
BigInt to_bigint(const Int& v) {
  if constexpr (std::is_same_v<Int, BigInt>) {
    return v;
  } else {
    const auto mag = v < 0 ? -static_cast<util::u128>(v)
                           : static_cast<util::u128>(v);
    return BigInt::from_limbs({static_cast<std::uint64_t>(mag),
                               static_cast<std::uint64_t>(mag >> 64)},
                              v < 0);
  }
}

/// Exact sum of interval counts: a u64 word that spills into a BigInt at
/// 2^62.  Per-worker tallies fold to the same total for every chunking.
struct Tally {
  std::uint64_t word = 0;
  BigInt spill;

  void add(i128 count) {  // < 2^62: the gates bound q^G far below
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
const obs::Counter g_census_convolutions("census.convolutions");
const obs::Counter g_census_exact("census.exact_sweeps");
const obs::Counter g_census_sampled("census.sampled_sweeps");
const obs::Counter g_span_instances("census.span_instances");
const obs::Counter g_span_forms("census.span_forms");
const obs::Counter g_span_wide_forms("census.span_wide_forms");

/// The census loops tick their progress meter once per kTickBatch items of
/// a worker and tick each worker's remainder in the fold: a tick per item
/// makes the workers contend on the meter's atomics while it is active.
constexpr std::uint64_t kTickBatch = 1024;

/// Called with a worker's item count just after it grew by one.
void tick_batched(obs::ProgressMeter& progress, std::uint64_t items) {
  if (items % kTickBatch == 0) progress.tick(kTickBatch);
}

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
  if constexpr (std::is_same_v<Int, std::int64_t>) {
    step_divisor_ = util::Divisor(static_cast<std::uint64_t>(step_));
  }
  // coef[p] = chain(e_p), so dot and the histogram agree with chain by
  // construction.
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
    if constexpr (std::is_same_v<Int, BigInt>) {
      if (dv[d] == 0) continue;
    }
    shift += coef_[d] * static_cast<std::int64_t>(dv[d]);
  }
  return shift;
}

template <class Int>
Int ShiftModel<Int>::count(const Int& shift) const {
  Int lo;
  Int hi;
  if constexpr (std::is_same_v<Int, std::int64_t>) {
    lo = step_divisor_.ceil(y_lo_ + shift);
    hi = step_divisor_.floor(y_hi_ + shift);
  } else {
    lo = div_ceil(y_lo_ + shift, step_);
    hi = div_floor(y_hi_ + shift, step_);
  }
  lo = std::max(lo, t_lo_);
  hi = std::min(hi, t_hi_);
  return hi < lo ? Int{} : hi - lo + 1;
}

namespace {

/// Cap on the shift histogram's width: 2^23 uint64 cells, 64 MiB.  The
/// supports at (7, 2), (9, 2) and (7, 3) are about 9 k, 260 k and 6.7 M
/// shifts wide; (9, 3)'s is 2.3e9.
constexpr std::uint64_t kMaxHistogramWidth = std::uint64_t{1} << 23;

/// An exact census: its count and the digit vectors it accounts for.
struct ExactCount {
  BigInt ones;
  std::uint64_t evaluations = 0;
};

/// The exact census by the histogram N of the shift over all q^digits
/// digit vectors: ones = sum_s N(s) count(s).  One pass per digit p folds
/// in its q values, N'(s) = sum_{d < q} N(s - d coef[p]), in place.  N
/// lives on the shift range [lo, lo + width), width = sum_p (q - 1)
/// |coef[p]| + 1, and N(s) <= q^digits fits a uint64.  nullopt when the
/// width exceeds kMaxHistogramWidth, or when the passes' digits * q * width
/// additions are not fewer than the sweep's q^digits visits.
template <class Int>
std::optional<ExactCount> convolve(const ShiftModel<Int>& model,
                                   std::uint64_t q, std::uint64_t space) {
  const Int cap(static_cast<std::int64_t>(kMaxHistogramWidth));
  std::vector<std::int64_t> coef;
  std::uint64_t width = 1;
  std::int64_t lo = 0;
  for (const Int& c : model.coef()) {
    if (c > cap || c < -cap) return std::nullopt;
    coef.push_back(to_i64(c));
    const auto mag = static_cast<std::uint64_t>(std::abs(coef.back()));
    if (mag != 0 && q - 1 > (kMaxHistogramWidth - width) / mag) {
      return std::nullopt;
    }
    width += (q - 1) * mag;
    if (coef.back() < 0) lo -= static_cast<std::int64_t>((q - 1) * mag);
  }
  if (static_cast<util::u128>(coef.size()) * q * width >= space) {
    return std::nullopt;
  }
  // Cells [a, b] are those the passes so far reach.  Each pass walks them
  // against the direction of c, so the cells it adds in are still N's.
  std::vector<std::uint64_t> hist(width);
  std::int64_t a = -lo;
  std::int64_t b = -lo;
  hist[static_cast<std::size_t>(a)] = 1;
  const auto digit_values = static_cast<std::int64_t>(q);
  for (const std::int64_t c : coef) {
    (c > 0 ? b : a) += (digit_values - 1) * c;
    const std::int64_t dir = c > 0 ? -1 : 1;
    for (std::int64_t s = c > 0 ? b : a; a <= s && s <= b; s += dir) {
      std::uint64_t n = hist[static_cast<std::size_t>(s)];
      for (std::int64_t d = 1, t = s - c; d < digit_values && a <= t && t <= b;
           ++d, t -= c) {
        n += hist[static_cast<std::size_t>(t)];
      }
      hist[static_cast<std::size_t>(s)] = n;
    }
  }
  // sum N(s) count(s) <= q^digits q^G < 2^126 can pass 2^63, so the int64
  // model sums in i128 too.
  WideSum<Int> ones{};
  ExactCount out;
  for (std::size_t i = 0; i < hist.size(); ++i) {
    if (hist[i] == 0) continue;
    out.evaluations += hist[i];
    ones += wide_from_u64<Int>(hist[i]) *
            WideSum<Int>(model.count(Int(lo + static_cast<std::int64_t>(i))));
  }
  out.ones = to_bigint(ones);
  return out;
}

/// The exact census by the recompute sweep: the full x-chain of every
/// digit vector, on the worker pool.
template <class Int>
ExactCount recompute_sweep(const ShiftModel<Int>& model,
                           const ConstructionParams& p, std::uint64_t space) {
  obs::ProgressMeter progress("row_census[exact]", space);
  struct SweepState {
    std::vector<Int> x;  // chain scratch
    Tally ones;
    std::uint64_t evals = 0;
  };
  const auto states = util::sweep_digits(
      p.q(), model.digits(),
      [&] { return SweepState{std::vector<Int>(p.n() - 1), {}, 0}; },
      [&](SweepState& st, const std::vector<std::uint32_t>& dv) {
        st.ones.add(model.count(model.chain(dv, st.x)));
      },
      [&](SweepState& st, std::uint64_t items) {
        st.evals += items;
        progress.tick(items);
      });
  Tally ones;
  ExactCount out;
  for (const SweepState& st : states) {
    ones.add(st.ones);
    out.evaluations += st.evals;
  }
  out.ones = ones.total();
  return out;
}

}  // namespace

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
  bool convolved = false;
  if (census.exact) {
    std::optional<ExactCount> count;
    if (options.delta) count = convolve(model, q, *space);
    convolved = count.has_value();
    if (!convolved) count = recompute_sweep(model, p, *space);
    census.ones = std::move(count->ones);
    census.evaluations = count->evaluations;
  } else {
    CCMX_REQUIRE(options.samples >= 1,
                 "row_census: q^digits exceeds the budget, so the sampled "
                 "census needs samples >= 1");
    obs::ProgressMeter progress("row_census[sampled]", options.samples);
    // One base draw from the caller's stream seeds a per-sample generator,
    // so sample s sees the same digits no matter which worker runs it.
    const std::uint64_t base_seed = rng();
    const util::Xoshiro256::Bound digit_bound = util::Xoshiro256::prepare(q);
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
            digit = util::narrow_cast<std::uint32_t>(draw.below(digit_bound));
          }
          acc.sum.add(model.count(model.dot(acc.dv)));
          tick_batched(progress, ++acc.evals);
        },
        [&progress](SampleAcc& into, const SampleAcc& acc) {
          into.sum.add(acc.sum);
          into.evals += acc.evals;
          progress.tick(acc.evals % kTickBatch);
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
    (!census.exact ? g_census_sampled
     : convolved   ? g_census_convolutions
                   : g_census_exact)
        .add();
  }
  census.log_q_ones = log_base_q(census.ones, q);
  return census;
}

template class ShiftModel<std::int64_t>;
template class ShiftModel<i128>;
template class ShiftModel<BigInt>;
template RowCensus count_row<std::int64_t>(const ConstructionParams&,
                                           const la::IntMatrix&,
                                           const CensusOptions&,
                                           util::Xoshiro256&);
template RowCensus count_row<i128>(const ConstructionParams&,
                                   const la::IntMatrix&, const CensusOptions&,
                                   util::Xoshiro256&);
template RowCensus count_row<BigInt>(const ConstructionParams&,
                                     const la::IntMatrix&,
                                     const CensusOptions&, util::Xoshiro256&);

RowCensus row_census(const ConstructionParams& p, const la::IntMatrix& c,
                     const CensusOptions& options, util::Xoshiro256& rng) {
  switch (model_int(p.n(), p.k())) {
    case ModelInt::kInt64:
      return count_row<std::int64_t>(p, c, options, rng);
    case ModelInt::kI128:
      return count_row<i128>(p, c, options, rng);
    case ModelInt::kBigInt:
      break;
  }
  return count_row<BigInt>(p, c, options, rng);
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

/// Records of int64 words, appended one at a time; `ends` holds where each
/// record ends.
struct Records {
  std::vector<std::int64_t> words;
  std::vector<std::size_t> ends;

  void close() { ends.push_back(words.size()); }

  /// Appends other's records; into an empty one, by taking its buffers.
  void append(Records&& other) {
    if (ends.empty()) {
      *this = std::move(other);
      return;
    }
    const std::size_t base = words.size();
    words.insert(words.end(), other.words.begin(), other.words.end());
    for (const std::size_t end : other.ends) ends.push_back(base + end);
  }

  /// The number of distinct records.  Sorting the records by a hash, then
  /// by the words themselves, puts equal records side by side; two records
  /// are compared word by word only when their hashes tie.
  [[nodiscard]] std::uint64_t distinct() const {
    using Word = std::vector<std::int64_t>::const_iterator;
    const auto first = [this](std::size_t r) -> Word {
      return words.begin() +
             static_cast<std::ptrdiff_t>(r == 0 ? 0 : ends[r - 1]);
    };
    const auto last = [this](std::size_t r) -> Word {
      return words.begin() + static_cast<std::ptrdiff_t>(ends[r]);
    };
    // (hash, record index), sorted by hash, then by record.
    std::vector<std::pair<std::uint64_t, std::size_t>> keyed(ends.size());
    for (std::size_t r = 0; r < ends.size(); ++r) {
      std::uint64_t h = 0;
      for (Word w = first(r); w != last(r); ++w) {
        h = (h ^ static_cast<std::uint64_t>(*w)) * 0x9e3779b97f4a7c15ULL;
        h ^= h >> 29;
      }
      keyed[r] = {h, r};
    }
    std::sort(keyed.begin(), keyed.end(), [&](const auto& x, const auto& y) {
      if (x.first != y.first) return x.first < y.first;
      return std::lexicographical_compare(first(x.second), last(x.second),
                                          first(y.second), last(y.second));
    });
    std::uint64_t count = keyed.empty() ? 0 : 1;
    for (std::size_t i = 1; i < keyed.size(); ++i) {
      const auto& [hx, x] = keyed[i - 1];
      const auto& [hy, y] = keyed[i];
      if (hx != hy || !std::equal(first(x), last(x), first(y), last(y))) {
        ++count;
      }
    }
    return count;
  }
};

/// The Lemma 3.4 census's keys.  A form F (la::SpanForm) is RREF-shaped:
/// its pivot columns hold lambda * I, and any other column with k pivot
/// columns to its left is zero outside its top k rows.  So its record
/// keeps its rank, lambda, its pivot columns and, for each other column,
/// those top k entries: equal records mean equal forms, and a census form
/// ([I | v] for A(C)) takes 2n words instead of n(n - 1).  A form with an
/// entry past int64 goes to `wide` instead; a form has one
/// representation, so no span lands in both.  The sampled census also
/// keeps a record of each draw's C.
struct SpanKeys {
  Records forms;
  std::vector<la::IntMatrix> wide;
  Records draws;
  std::uint64_t fallbacks = 0;
  std::uint64_t items = 0;  // C blocks this worker keyed
  std::vector<std::int64_t> c;   // scratch: C's digits, row-major
  std::vector<std::int64_t> at;  // scratch: A(C)^T's words

  /// Keys the span of A(C) for the digits in c.
  void add_block(const ConstructionParams& p) {
    a_transpose_words(p, c, at);
    add(la::column_span_form(at, p.n() - 1, p.n()));
  }

  void add(const la::SpanForm& form) {
    fallbacks += form.fallback ? 1 : 0;
    if (form.wide) {
      wide.push_back(*form.wide);
      return;
    }
    const auto entry = [&form](std::size_t i, std::size_t j) {
      return form.words[i * form.dim + j];
    };
    // Column j is the k-th pivot column iff entry(k, j) != 0, where k
    // pivot columns lie left of it.
    const auto is_pivot = [&](std::size_t k, std::size_t j) {
      return k < form.rank && entry(k, j) != 0;
    };
    std::vector<std::int64_t>& out = forms.words;
    out.push_back(static_cast<std::int64_t>(form.rank));
    const std::size_t lambda = out.size();
    out.push_back(0);  // every pivot's value, set below
    for (std::size_t j = 0, k = 0; j < form.dim; ++j) {
      if (is_pivot(k, j)) {
        out[lambda] = entry(k++, j);
        out.push_back(static_cast<std::int64_t>(j));
      }
    }
    for (std::size_t j = 0, k = 0; j < form.dim; ++j) {
      if (is_pivot(k, j)) {
        ++k;
      } else {
        for (std::size_t i = 0; i < k; ++i) out.push_back(entry(i, j));
      }
    }
    forms.close();
  }

  void merge(SpanKeys&& other) {
    forms.append(std::move(other.forms));
    wide.insert(wide.end(), std::make_move_iterator(other.wide.begin()),
                std::make_move_iterator(other.wide.end()));
    draws.append(std::move(other.draws));
    fallbacks += other.fallbacks;
    items += other.items;
  }
};

/// The number of distinct matrices in `forms`.
std::uint64_t count_distinct(std::vector<la::IntMatrix> forms) {
  const auto before = [](const la::IntMatrix& x, const la::IntMatrix& y) {
    return x.rows() != y.rows() ? x.rows() < y.rows() : x.data() < y.data();
  };
  std::sort(forms.begin(), forms.end(), before);
  return static_cast<std::uint64_t>(
      std::unique(forms.begin(), forms.end()) - forms.begin());
}

/// Appends C's digits as one record: each is below q = 2^k - 1, so k bits
/// wide, and 64 / k share a word.
void add_draw(Records& draws, const std::vector<std::int64_t>& c, unsigned k) {
  const unsigned per_word = 64 / k;
  std::uint64_t word = 0;
  unsigned used = 0;
  for (const std::int64_t digit : c) {
    if (used == per_word) {
      draws.words.push_back(static_cast<std::int64_t>(std::exchange(word, 0)));
      used = 0;
    }
    word |= static_cast<std::uint64_t>(digit) << (used * k);
    ++used;
  }
  draws.words.push_back(static_cast<std::int64_t>(word));
  draws.close();
}

}  // namespace

SpanCensus lemma34_census(const ConstructionParams& p,
                          std::uint64_t max_instances,
                          util::Xoshiro256& rng) {
  const obs::ScopedSpan span("lemma34_census");
  SpanCensus census;
  const std::optional<std::uint64_t> total =
      util::digit_space_within(p.q(), p.free_entries_c(), max_instances);
  obs::ProgressMeter progress("lemma34_census", total.value_or(max_instances));
  const auto merge = [&progress](SpanKeys& into, SpanKeys&& from) {
    progress.tick(from.items % kTickBatch);
    into.merge(std::move(from));
  };
  SpanKeys keys;
  if (total) {
    census.exhaustive = true;
    keys = util::parallel_reduce<SpanKeys>(
        0, *total, [] { return SpanKeys{}; },
        [&](SpanKeys& acc, std::size_t index) {
          c_instance_digits(p, static_cast<std::uint64_t>(index), acc.c);
          acc.add_block(p);
          tick_batched(progress, ++acc.items);
        },
        merge);
    census.tested = *total;
  } else {
    // Per-trial derived generators keep the sampled census independent of
    // the worker that runs each trial.  A C drawn twice is keyed twice, and
    // both copies of it and of its form dedup below.
    // A trial's C is the first half^2 draws of its generator, as in
    // FreeParts::random.
    const std::uint64_t base_seed = rng();
    const util::Xoshiro256::Bound digit_bound =
        util::Xoshiro256::prepare(p.q());
    keys = util::parallel_reduce<SpanKeys>(
        0, static_cast<std::size_t>(max_instances),
        [] { return SpanKeys{}; },
        [&](SpanKeys& acc, std::size_t trial) {
          util::Xoshiro256 draw(
              base_seed +
              0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(trial) + 1));
          acc.c.resize(p.free_entries_c());
          for (std::int64_t& digit : acc.c) {
            digit = static_cast<std::int64_t>(draw.below(digit_bound));
          }
          add_draw(acc.draws, acc.c, p.k());
          acc.add_block(p);
          tick_batched(progress, ++acc.items);
        },
        merge);
    census.tested = keys.draws.distinct();
  }
  census.distinct =
      keys.forms.distinct() + count_distinct(std::move(keys.wide));
  if (obs::enabled()) {
    g_span_instances.add(census.tested);
    g_span_forms.add(census.distinct);
    g_span_wide_forms.add(keys.fallbacks);
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
