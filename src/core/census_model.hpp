// The row census's arithmetic (census.hpp), written once over its integer
// type.  For a fixed C, the D_0 interval shift of a digit vector dv (E
// row-major, then D rows 1..half-1) is linear in dv: shift(dv) =
// sum_p dv[p] * coef[p] with coef[p] = chain(e_p).  chain is the full
// x-chain (the recompute sweep's evaluator), coef what the shift histogram
// convolves, dot the linear form (per sample), and count the number of
// D_0 rows whose x_1 is (n-1)-digit representable.  row_census picks the
// type by model_int below; census.cpp instantiates all three.
#pragma once

#include <cstdint>
#include <vector>

#include "core/census.hpp"
#include "util/divisor.hpp"

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
                          std::vector<Int>& x) const;
  /// sum_p dv[p] coef[p].  Only the BigInt model skips zero digits: there
  /// a skip saves a multiplication, on a machine word it is a branch that
  /// mispredicts on uniform digits.
  [[nodiscard]] Int dot(const std::vector<std::uint32_t>& dv) const;
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

/// row_census on ShiftModel<Int>.  When q^digits <= options.budget the
/// census is exact: the shift histogram settles it when options.delta is
/// set and the histogram is narrower than the sweep and a fixed cap,
/// otherwise the recompute sweep does.  Above the budget it is sampled.
template <class Int>
[[nodiscard]] RowCensus count_row(const ConstructionParams& p,
                                  const la::IntMatrix& c,
                                  const CensusOptions& options,
                                  util::Xoshiro256& rng);

}  // namespace ccmx::core
