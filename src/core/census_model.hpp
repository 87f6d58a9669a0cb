// The row census's arithmetic (census.hpp), written once over its integer
// type.  For a fixed C, the D_0 interval shift of a digit vector dv (E
// row-major, then D rows 1..half-1) is linear in dv: shift(dv) =
// sum_p dv[p] * coef[p] with coef[p] = chain(e_p).  chain is the full
// x-chain (the recompute engine), dot the linear form, step a one-digit
// update (the delta engine), and count the number of D_0 rows whose x_1
// is (n-1)-digit representable.  row_census runs count_row<util::i128>
// when n (k + 1) + 20 < 120 and count_row<BigInt> otherwise; census.cpp
// instantiates both.
#pragma once

#include <cstdint>
#include <vector>

#include "core/census.hpp"

namespace ccmx::core {

template <class Int>
class ShiftModel {
 public:
  ShiftModel(const ConstructionParams& p, const la::IntMatrix& c);

  /// Width of dv: half * L + (half - 1) * G.
  [[nodiscard]] std::size_t digits() const noexcept { return coef_.size(); }
  /// Fills the caller-owned scratch x (length n - 1).
  [[nodiscard]] Int chain(const std::vector<std::uint32_t>& dv,
                          std::vector<Int>& x) const;
  [[nodiscard]] Int dot(const std::vector<std::uint32_t>& dv) const;
  /// Moves shift by dv[pos] changing from old_d to new_d.
  void step(Int& shift, std::size_t pos, std::uint32_t old_d,
            std::uint32_t new_d) const;
  [[nodiscard]] Int count(const Int& shift) const;

 private:
  std::size_t half_, l_, g_;
  Int q_;
  std::vector<Int> w_, u_, c_, coef_;  // c_ is C, row-major
  // count: t in [t_lo_, t_hi_] with step_ * t - shift in [y_lo_, y_hi_].
  Int step_, y_lo_, y_hi_, t_lo_, t_hi_;
};

/// row_census on ShiftModel<Int>: the exact sweep (delta or recompute, per
/// options.delta) when q^digits <= options.budget, else the sampled one.
template <class Int>
[[nodiscard]] RowCensus count_row(const ConstructionParams& p,
                                  const la::IntMatrix& c,
                                  const CensusOptions& options,
                                  util::Xoshiro256& rng);

}  // namespace ccmx::core
