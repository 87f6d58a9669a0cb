#include "core/census.hpp"

#include <bit>
#include <cmath>
#include <string>
#include <unordered_set>
#include <utility>

#include "bigint/negabase.hpp"
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

namespace {

/// log2 of a positive BigInt, stable for arbitrarily large values.
double approx_log2(const BigInt& value) {
  CCMX_REQUIRE(value.signum() > 0, "log2 of a non-positive value");
  const std::size_t bits = value.bit_length();
  if (bits <= 62) {
    return std::log2(static_cast<double>(value.to_int64()));
  }
  const BigInt top = value >> util::narrow_cast<unsigned>(bits - 53);
  return std::log2(static_cast<double>(top.to_int64())) +
         static_cast<double>(bits - 53);
}

double log_base_q(const BigInt& value, std::uint64_t q) {
  if (value.signum() <= 0) return 0.0;
  return approx_log2(value) / std::log2(static_cast<double>(q));
}

/// floor(a / b) for b != 0 (exact, BigInt).
BigInt div_floor(const BigInt& a, const BigInt& b) {
  auto [quot, rem] = BigInt::divmod(a, b);
  if (!rem.is_zero() && (rem.is_negative() != b.is_negative())) {
    quot -= BigInt(1);
  }
  return quot;
}

/// ceil(a / b).
BigInt div_ceil(const BigInt& a, const BigInt& b) {
  auto [quot, rem] = BigInt::divmod(a, b);
  if (!rem.is_zero() && (rem.is_negative() == b.is_negative())) {
    quot += BigInt(1);
  }
  return quot;
}

/// #{ t in [tlo, thi] : v * t in [a, b] }, v != 0.
BigInt count_scaled_in_interval(const BigInt& v, const BigInt& a,
                                const BigInt& b, const BigInt& tlo,
                                const BigInt& thi) {
  BigInt lo = v.signum() > 0 ? div_ceil(a, v) : div_ceil(b, v);
  BigInt hi = v.signum() > 0 ? div_floor(b, v) : div_floor(a, v);
  if (lo < tlo) lo = tlo;
  if (hi > thi) hi = thi;
  if (hi < lo) return BigInt(0);
  return hi - lo + BigInt(1);
}

using ccmx::util::i128;

i128 div_floor_i128(i128 a, i128 b) {
  i128 q = a / b;
  if (a % b != 0 && ((a < 0) != (b < 0))) --q;
  return q;
}

i128 div_ceil_i128(i128 a, i128 b) {
  i128 q = a / b;
  if (a % b != 0 && ((a < 0) == (b < 0))) ++q;
  return q;
}

const obs::Counter g_census_evaluations("census.evaluations");
const obs::Counter g_census_exact("census.exact_sweeps");
const obs::Counter g_census_sampled("census.sampled_sweeps");

}  // namespace

BigInt total_rows(const ConstructionParams& p) {
  return BigInt::pow(BigInt(static_cast<std::int64_t>(p.q())),
                     util::narrow_cast<unsigned>(p.free_entries_c()));
}

BigInt total_columns(const ConstructionParams& p) {
  return BigInt::pow(BigInt(static_cast<std::int64_t>(p.q())),
                     util::narrow_cast<unsigned>(p.free_entries_dey()));
}

RowCensus row_census(const ConstructionParams& p, const la::IntMatrix& c,
                     const CensusOptions& options, util::Xoshiro256& rng) {
  CCMX_REQUIRE(p.valid(), "invalid construction parameters");
  const std::size_t half = p.half();
  const std::size_t g = p.g();
  const std::size_t l = p.l();
  const std::uint64_t q = p.q();
  const BigInt q_big(static_cast<std::int64_t>(q));
  const std::vector<BigInt> w = p.w_vector();
  const std::vector<BigInt> u = p.u_vector();
  const BigInt neg_q_l = BigInt::pow(BigInt(-static_cast<std::int64_t>(q)),
                                     util::narrow_cast<unsigned>(l));
  const num::NegabaseRange r_g = num::negabase_range(q, g);
  const num::NegabaseRange r_y = num::negabase_range(q, p.n() - 1);

  // Enumerated digits: E (half * L) then D rows 1..half-1 (each G digits).
  const std::size_t digits = half * l + (half - 1) * g;
  // Space size as double-log to decide the engine.
  const double log2_space =
      static_cast<double>(digits) * std::log2(static_cast<double>(q));
  const bool exact =
      log2_space <= std::log2(static_cast<double>(options.budget));

  // The x-chain — tails from E, heads from D, shift from the heads — is a
  // composition of linear maps with no constant term, so the D_0 interval
  // shift is exactly linear in the digit vector:
  //
  //     shift(dv) = sum_p dv[p] * coef[p],   coef[p] = shift(e_p).
  //
  // The full chain (recompute into caller-owned scratch; also the
  // delta-off ablation evaluator):
  const auto chain_shift = [&](const std::vector<std::uint32_t>& dv,
                               std::vector<BigInt>& x) {
    std::size_t pos = 0;
    for (std::size_t r = 0; r < half; ++r) {
      BigInt acc;
      for (std::size_t t = 0; t < l; ++t) {
        // Word-sized digit: fused multiply-add, no BigInt temporary.
        acc.add_mul(w[t], static_cast<std::int64_t>(dv[pos++]));
      }
      x[half + r] = acc;
    }
    // Heads x[half-1] .. x[1] from D rows half-1 .. 1 (stored in row order).
    for (std::size_t idx = half; idx-- > 1;) {
      BigInt du;
      for (std::size_t j = 0; j < g; ++j) {
        du.add_mul(u[j], static_cast<std::int64_t>(
                             dv[half * l + (idx - 1) * g + j]));
      }
      BigInt value = du;
      if (idx + 1 <= half - 1) value -= q_big * x[idx + 1];
      for (std::size_t t = 0; t < half; ++t) value -= c(idx, t) * x[half + t];
      x[idx] = value;
    }
    BigInt shift = q_big * x[1];
    for (std::size_t t = 0; t < half; ++t) shift += c(0, t) * x[half + t];
    return shift;
  };

  // coef[p] = shift(e_p) via the reference chain, so the incremental engine
  // agrees with it bit for bit by construction.
  std::vector<BigInt> coef(digits);
  {
    std::vector<std::uint32_t> unit(digits, 0);
    std::vector<BigInt> scratch(p.n() - 1);
    for (std::size_t d = 0; d < digits; ++d) {
      unit[d] = 1;
      coef[d] = chain_shift(unit, scratch);
      unit[d] = 0;
    }
  }

  // D_0 interval count: x0 = neg_q_l * t - q x1 - c_0 . tail must lie in
  // the y-representable interval.
  const auto count_for = [&](const BigInt& shift) {
    return count_scaled_in_interval(neg_q_l, r_y.lo + shift, r_y.hi + shift,
                                    r_g.lo, r_g.hi);
  };

  // __int128 fast path: every quantity in the chain is bounded by
  // ~n * q^n, so it is exact whenever n * (k + 1) + 20 < 120 bits.
  const bool fast = static_cast<double>(p.n()) * (p.k() + 1.0) + 20.0 < 120.0;
  struct FastCtx {
    std::vector<i128> w, u, c_flat, coef;
    i128 neg_q_l = 0, ry_lo = 0, ry_hi = 0, rg_lo = 0, rg_hi = 0, q = 0;
  } fc;
  if (fast) {
    const auto to128 = [](const BigInt& v) {
      // The fast gate above bounds every chain quantity below 2^120, so the
      // magnitude occupies at most two limbs — read them directly.
      static_assert(BigInt::kLimbBits == 64,
                    "the __int128 mirror packs exactly two BigInt limbs");
      CCMX_ASSERT(v.bit_length() <= 127);
      util::u128 mag = 0;
      for (std::size_t i = v.limb_count(); i-- > 0;) {
        mag = (mag << BigInt::kLimbBits) | v.limb(i);
      }
      const i128 out = static_cast<i128>(mag);
      return v.is_negative() ? -out : out;
    };
    for (const BigInt& v : w) fc.w.push_back(to128(v));
    for (const BigInt& v : u) fc.u.push_back(to128(v));
    for (const BigInt& v : coef) fc.coef.push_back(to128(v));
    fc.c_flat.reserve(half * half);
    for (std::size_t i = 0; i < half; ++i) {
      for (std::size_t t = 0; t < half; ++t) fc.c_flat.push_back(to128(c(i, t)));
    }
    fc.neg_q_l = to128(neg_q_l);
    fc.ry_lo = to128(r_y.lo);
    fc.ry_hi = to128(r_y.hi);
    fc.rg_lo = to128(r_g.lo);
    fc.rg_hi = to128(r_g.hi);
    fc.q = static_cast<i128>(q);
  }

  const auto chain_shift_fast = [&](const std::vector<std::uint32_t>& dv,
                                    std::vector<i128>& x) -> i128 {
    std::size_t pos = 0;
    for (std::size_t r = 0; r < half; ++r) {
      i128 acc = 0;
      for (std::size_t t = 0; t < l; ++t) {
        acc += static_cast<i128>(dv[pos++]) * fc.w[t];
      }
      x[half + r] = acc;
    }
    for (std::size_t idx = half; idx-- > 1;) {
      i128 du = 0;
      for (std::size_t j = 0; j < g; ++j) {
        du += static_cast<i128>(dv[half * l + (idx - 1) * g + j]) * fc.u[j];
      }
      i128 value = du;
      if (idx + 1 <= half - 1) value -= fc.q * x[idx + 1];
      for (std::size_t t = 0; t < half; ++t) {
        value -= fc.c_flat[idx * half + t] * x[half + t];
      }
      x[idx] = value;
    }
    i128 shift = fc.q * x[1];
    for (std::size_t t = 0; t < half; ++t) {
      shift += fc.c_flat[t] * x[half + t];
    }
    return shift;
  };

  const auto count_fast = [&](i128 shift) -> std::uint64_t {
    i128 lo = fc.neg_q_l > 0 ? div_ceil_i128(fc.ry_lo + shift, fc.neg_q_l)
                             : div_ceil_i128(fc.ry_hi + shift, fc.neg_q_l);
    i128 hi = fc.neg_q_l > 0 ? div_floor_i128(fc.ry_hi + shift, fc.neg_q_l)
                             : div_floor_i128(fc.ry_lo + shift, fc.neg_q_l);
    if (lo < fc.rg_lo) lo = fc.rg_lo;
    if (hi > fc.rg_hi) hi = fc.rg_hi;
    if (hi < lo) return 0;
    return static_cast<std::uint64_t>(hi - lo + 1);
  };

  RowCensus census;
  census.columns = total_columns(p);
  census.log_q_columns = log_base_q(census.columns, q);

  const obs::ScopedSpan span("row_census");
  if (exact) {
    // Exactness requires q^digits <= budget, so the space fits uint64.
    const std::uint64_t space_size = util::digit_space_size(q, digits);
    obs::ProgressMeter progress("row_census[exact]", space_size);
    const bool use_delta = options.delta;
    // Per-worker accumulator: counts fold into a u64 on the fast path and
    // spill into the BigInt at 2^62; both are exact, so the grand total is
    // independent of how the index space was chunked.
    struct SweepState {
      i128 shift = 0;
      BigInt shift_big;
      BigInt ones;
      std::uint64_t fast_acc = 0;
      std::uint64_t evals = 0;
      std::vector<i128> scratch;
      std::vector<BigInt> scratch_big;
    };
    auto states = util::sweep_digits(
        q, digits,
        [&] {
          SweepState st;
          if (use_delta) return st;
          if (fast) {
            st.scratch.assign(p.n() - 1, 0);
          } else {
            st.scratch_big.assign(p.n() - 1, BigInt());
          }
          return st;
        },
        [&](SweepState& st, const std::vector<std::uint32_t>& dv) {
          if (!use_delta) return;
          if (fast) {
            i128 s = 0;
            for (std::size_t d = 0; d < digits; ++d) {
              if (dv[d] != 0) s += static_cast<i128>(dv[d]) * fc.coef[d];
            }
            st.shift = s;
          } else {
            BigInt s;
            for (std::size_t d = 0; d < digits; ++d) {
              if (dv[d] != 0) {
                s += BigInt(static_cast<std::int64_t>(dv[d])) * coef[d];
              }
            }
            st.shift_big = s;
          }
        },
        [&](SweepState& st, std::size_t pos, std::uint32_t old_d,
            std::uint32_t new_d) {
          if (!use_delta) return;
          if (fast) {
            st.shift +=
                (static_cast<i128>(new_d) - static_cast<i128>(old_d)) *
                fc.coef[pos];
          } else {
            st.shift_big += BigInt(static_cast<std::int64_t>(new_d) -
                                   static_cast<std::int64_t>(old_d)) *
                            coef[pos];
          }
        },
        [&](SweepState& st, const std::vector<std::uint32_t>& dv) {
          if (fast) {
            const i128 s =
                use_delta ? st.shift : chain_shift_fast(dv, st.scratch);
            st.fast_acc += count_fast(s);
            if (st.fast_acc >= (std::uint64_t{1} << 62)) {
              st.ones += static_cast<std::int64_t>(st.fast_acc);
              st.fast_acc = 0;
            }
          } else {
            const BigInt s =
                use_delta ? st.shift_big : chain_shift(dv, st.scratch_big);
            st.ones += count_for(s);
          }
        },
        [&](SweepState& st, std::uint64_t items) {
          st.evals += items;
          progress.tick(items);
        });
    BigInt ones;
    for (SweepState& st : states) {
      st.ones += static_cast<std::int64_t>(st.fast_acc);
      ones += st.ones;
      census.evaluations += st.evals;
    }
    census.ones = ones;
    census.exact = true;
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
      BigInt sum;
      std::uint64_t fast_acc = 0;
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
          if (fast) {
            i128 shift = 0;
            for (std::size_t d = 0; d < digits; ++d) {
              if (acc.dv[d] != 0) {
                shift += static_cast<i128>(acc.dv[d]) * fc.coef[d];
              }
            }
            acc.fast_acc += count_fast(shift);
            if (acc.fast_acc >= (std::uint64_t{1} << 62)) {
              acc.sum += static_cast<std::int64_t>(acc.fast_acc);
              acc.fast_acc = 0;
            }
          } else {
            BigInt shift;
            for (std::size_t d = 0; d < digits; ++d) {
              if (acc.dv[d] != 0) {
                shift += BigInt(static_cast<std::int64_t>(acc.dv[d])) * coef[d];
              }
            }
            acc.sum += count_for(shift);
          }
          ++acc.evals;
          progress.tick();
        },
        [](SampleAcc& into, const SampleAcc& acc) {
          into.sum += acc.sum + static_cast<std::int64_t>(acc.fast_acc);
          into.evals += acc.evals;
        });
    // ones ~ q^digits * mean(count).
    const BigInt space =
        BigInt::pow(q_big, util::narrow_cast<unsigned>(digits));
    census.ones = (space * total.sum) /
                  BigInt(static_cast<std::int64_t>(options.samples));
    census.exact = false;
    census.evaluations = total.evals;
  }
  if (obs::enabled()) {
    g_census_evaluations.add(census.evaluations);
    (census.exact ? g_census_exact : g_census_sampled).add();
  }
  census.log_q_ones = log_base_q(census.ones, q);
  return census;
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

/// Canonical byte key of an integer matrix: dims + entry key bytes.  Cheap
/// compared to decimal to_string() (which is quadratic in the magnitude),
/// and injective because BigInt::append_key_bytes is.
void append_matrix_key(std::string& out, const la::IntMatrix& m) {
  const auto push_u32 = [&out](std::size_t v) {
    for (unsigned shift = 0; shift < 32; shift += 8) {
      out.push_back(std::bit_cast<char>(
          static_cast<unsigned char>(static_cast<std::uint64_t>(v) >> shift)));
    }
  };
  push_u32(m.rows());
  push_u32(m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) m(i, j).append_key_bytes(out);
  }
}

/// Same for a rational matrix (num/den pairs are canonical after reduction).
void append_matrix_key(std::string& out, const la::RatMatrix& m) {
  const auto push_u32 = [&out](std::size_t v) {
    for (unsigned shift = 0; shift < 32; shift += 8) {
      out.push_back(std::bit_cast<char>(
          static_cast<unsigned char>(static_cast<std::uint64_t>(v) >> shift)));
    }
  };
  push_u32(m.rows());
  push_u32(m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      m(i, j).num().append_key_bytes(out);
      m(i, j).den().append_key_bytes(out);
    }
  }
}

}  // namespace

SpanCensus lemma34_census(const ConstructionParams& p,
                          std::uint64_t max_instances,
                          util::Xoshiro256& rng) {
  const double log2_total = static_cast<double>(p.free_entries_c()) *
                            std::log2(static_cast<double>(p.q()));
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
  if (log2_total <= std::log2(static_cast<double>(max_instances))) {
    const std::uint64_t total =
        util::digit_space_size(p.q(), p.free_entries_c());
    census.exhaustive = true;
    obs::ProgressMeter progress("lemma34_census", total);
    const KeySet forms = util::parallel_reduce<KeySet>(
        0, total, [] { return KeySet{}; },
        [&](KeySet& set, std::size_t index) {
          set.insert(canonical_key(
              c_instance(p, static_cast<std::uint64_t>(index))));
          progress.tick();
        },
        merge);
    census.tested = total;
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
      la::RatMatrix negated = a;
      for (std::size_t r = 0; r < negated.rows(); ++r) {
        for (std::size_t col = 0; col < negated.cols(); ++col) {
          negated(r, col) = -negated(r, col);
        }
      }
      const la::RatMatrix stacked = intersection.augment(negated);
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
