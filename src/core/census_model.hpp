// The row census's arithmetic (census.hpp), written once over its integer
// type.  For a fixed C, the D_0 interval shift of a digit vector dv (E
// row-major, then D rows 1..half-1) is linear in dv: shift(dv) =
// sum_p dv[p] * coef[p] with coef[p] = chain(e_p).  chain is the full
// x-chain (the recompute sweep's evaluator), coef what the shift histogram
// convolves and the sampled census's digit groups tabulate, and count the
// number of D_0 rows whose x_1 is (n-1)-digit representable.  row_census
// picks the type by model_int below; census.cpp instantiates all three.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/census.hpp"
#include "util/divisor.hpp"
#include "util/rng.hpp"

namespace ccmx::core {

/// The integer type row_census runs ShiftModel on at (n, k).  Every chain
/// quantity (coef, chain's x values, the shift, count's interval ends) is
/// below 3 q^((3n - 5) / 2) in magnitude, since each D row multiplies the
/// heads by q, and that is below 2^(n (k + 1) + 20) wherever a type below
/// is chosen.  Each gate keeps that bound 7 bits inside its type's value
/// bits: int64 when n (k + 1) + 20 < 56 ((7, 2), (9, 2), (11, 2) and
/// (7, 3) among them; the bound there is at most 3 * 15^8 < 2^33, at
/// (7, 4)), i128 when it is < 120, and BigInt above.
enum class ModelInt { kInt64, kI128, kBigInt };

[[nodiscard]] constexpr ModelInt model_int(std::size_t n, unsigned k) noexcept {
  const std::size_t bits = n * (k + 1) + 20;
  return bits < 56    ? ModelInt::kInt64
         : bits < 120 ? ModelInt::kI128
                      : ModelInt::kBigInt;
}

template <class Int>
class ShiftModel {
 public:
  ShiftModel(const ConstructionParams& p, const la::IntMatrix& c);

  /// Width of dv: half * L + (half - 1) * G.
  [[nodiscard]] std::size_t digits() const noexcept { return coef_.size(); }
  /// coef[p] = chain(e_p), the shift's weight on digit p.
  [[nodiscard]] const std::vector<Int>& coef() const noexcept { return coef_; }
  /// Fills the caller-owned scratch x (length n - 1).
  [[nodiscard]] Int chain(const std::vector<std::uint32_t>& dv,
                          std::span<Int> x) const;
  [[nodiscard]] Int count(const Int& shift) const;

 private:
  std::size_t half_, l_, g_;
  Int q_;
  std::vector<Int> w_, u_, c_, coef_;  // c_ is C, row-major
  // count: t in [t_lo_, t_hi_] with step_ * t - shift in [y_lo_, y_hi_].
  Int step_, y_lo_, y_hi_, t_lo_, t_hi_;
  // The int64 model's step_, prepared for count's two quotients.
  util::Divisor step_divisor_;
};

/// The sampled census's draws.  The digits, in order, fall into groups of
/// g, the largest g >= 1 with q^g within a fixed cell cap (census.cpp); the
/// last group takes the digits left.  A group of w digits is one uniform
/// draw v below q^w, and its digits are v's base-q digits, least
/// significant first, so they stay iid uniform.  Its part of the shift,
/// sum_i coef[first + i] digit_i(v), is table[v]: a partial sum of the
/// shift's terms, so within model_int's bound.  A group of one digit keeps
/// no table and adds coef[first] * v.
template <class Int>
class DigitGroups {
 public:
  struct Group {
    std::size_t width = 0;          // w
    util::Xoshiro256::Bound bound;  // q^w, prepared
    Int coef{};                     // coef[first], for w = 1
    std::vector<Int> table;         // q^w parts, for w >= 2
  };

  DigitGroups(const std::vector<Int>& coef, std::uint64_t q);

  [[nodiscard]] const std::vector<Group>& groups() const noexcept {
    return groups_;
  }
  /// The group's part of the shift for the draw v < q^w.
  [[nodiscard]] static Int part(const Group& group, std::uint64_t v) {
    if (group.table.empty()) {
      return group.coef * static_cast<std::int64_t>(v);
    }
    return group.table[v];
  }
  /// One sample's shift: one below(bound) and one part per group.
  [[nodiscard]] Int shift(util::Xoshiro256& draw) const {
    Int sum{};
    for (const Group& group : groups_) {
      sum += part(group, draw.below(group.bound));
    }
    return sum;
  }

 private:
  std::vector<Group> groups_;
};

/// row_census on ShiftModel<Int>.  When q^digits <= options.budget the
/// census is exact: the shift histogram settles it when options.delta is
/// set and the histogram is narrower than the sweep and a fixed cap,
/// otherwise the recompute sweep does.  Above the budget it is sampled,
/// on DigitGroups.
template <class Int>
[[nodiscard]] RowCensus count_row(const ConstructionParams& p,
                                  const la::IntMatrix& c,
                                  const CensusOptions& options,
                                  util::Xoshiro256& rng);

}  // namespace ccmx::core
