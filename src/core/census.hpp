// Counting engines for Lemmas 3.4 and 3.5(b).
//
// The scalar characterization (construction.hpp) makes the truth-matrix
// censuses exact: a column (D, E, y) is a "one" (singular) iff
// y . u == x_1(C, D, E), and the base-(-q) bijection means for each (D, E)
// exactly one y works — provided x_1 lies in the (n-1)-digit representable
// interval.  Hence
//
//     ones(row C) = #{ (D, E) : x_1(C, D, E) representable }.
//
// The D_0 row enters x_1 affinely through a full interval of negabase
// values, so the innermost count is an exact interval intersection — this
// removes a factor q^G from the enumeration.  The interval's shift is
// linear in the remaining digits, so counting the digit vectors per shift
// value (a histogram as wide as the shift's range) replaces enumerating
// them, and keeps the census exact up to (n, k) = (9, 2) and (7, 3).  Above
// the caller's budget the engine switches to a stratified Monte Carlo
// estimate (uniform over (E, D_1..), exact over D_0) and reports
// exact = false.
#pragma once

#include <cstdint>
#include <vector>

#include "bigint/bigint.hpp"
#include "core/construction.hpp"
#include "util/rng.hpp"

namespace ccmx::core {

struct RowCensus {
  num::BigInt ones;          // exact count, or scaled estimate
  num::BigInt columns;       // q^{#free (D,E,y) entries}
  bool exact = true;
  double log_q_ones = 0.0;   // log_q of ones (for the lemma's exponents)
  double log_q_columns = 0.0;
  std::uint64_t evaluations = 0;  // digit vectors: q^digits, or the draws
};

/// Engine knobs for row_census.  The census is exact iff q^digits <=
/// budget; above it, it needs samples >= 1, so the defaults (budget 1,
/// samples 0) throw on any space of more than one digit vector.  An exact
/// census is settled by the shift histogram (census_model.hpp) where that
/// is narrower than the sweep; `delta = false` forces the recompute sweep
/// (the full x-chain per digit vector), the oracle that ablation
/// benchmarks, cross-checks and perfbench labels run.
struct CensusOptions {
  std::uint64_t budget = 1;  // exact-enumeration cap on q^digits
  std::size_t samples = 0;   // Monte Carlo draws above the budget
  bool delta = true;         // false: recompute sweep, never the histogram
};

/// Counts the singular columns of the truth-matrix row indexed by C.
/// `options.budget` caps the number of (E, D_1..D_{half-1}) combinations
/// counted exactly; above it, `options.samples` stratified draws estimate
/// the count.  The exact count comes from the histogram of the D_0 shift
/// over all digit vectors, or from the parallel recompute sweep; either
/// way evaluations is q^digits, and the result is identical for every
/// parallel degree.  Throws contract_error when the sampled branch is taken
/// with samples == 0; exact-only callers may pass samples 0.
[[nodiscard]] RowCensus row_census(const ConstructionParams& p,
                                   const la::IntMatrix& c,
                                   const CensusOptions& options,
                                   util::Xoshiro256& rng);

/// Convenience overload: (budget, samples), other options at default.
[[nodiscard]] RowCensus row_census(const ConstructionParams& p,
                                   const la::IntMatrix& c,
                                   std::uint64_t budget,
                                   std::size_t samples,
                                   util::Xoshiro256& rng);

/// Lemma 3.5(b) reference exponents: the paper's bounds say
/// q^{n^2/2 - O(n log_q n)} <= ones <= q^{n^2/2}; we report the concrete
/// exponents n^2/2 and the "(a)-construction" floor L * half (the number of
/// E instances, each contributing at least one singular column).
struct Lemma35Bounds {
  double upper_exponent;  // n^2 / 2
  double lower_exponent;  // half * L  (from the constructive part (a))
};
[[nodiscard]] Lemma35Bounds lemma35_bounds(const ConstructionParams& p);

/// Lemma 3.4 check: enumerates (or samples) C instances and counts distinct
/// Span(A(C)) by their canonical integer forms (span_canonical), keyed as
/// int64 words and deduplicated exactly; a form with an entry past int64
/// is compared as a BigInt matrix.  A sampled census counts each drawn C
/// once.  Returns (instances tested, distinct spans); the lemma asserts
/// they are equal.
struct SpanCensus {
  std::uint64_t tested = 0;
  std::uint64_t distinct = 0;
  bool exhaustive = false;
};
[[nodiscard]] SpanCensus lemma34_census(const ConstructionParams& p,
                                        std::uint64_t max_instances,
                                        util::Xoshiro256& rng);

/// Lemma 3.6-flavoured measurement: dimension of the intersection of the
/// spans of `count` randomly chosen rows A(C_i) (projected intersection
/// dimension shrinks as the family grows).
[[nodiscard]] std::vector<std::size_t> span_intersection_profile(
    const ConstructionParams& p, std::size_t count, util::Xoshiro256& rng);

/// Number of distinct C (truth-matrix rows): q^{half^2}, as a BigInt.
[[nodiscard]] num::BigInt total_rows(const ConstructionParams& p);
/// Number of distinct (D,E,y) columns: q^{(n^2-1)/2}.
[[nodiscard]] num::BigInt total_columns(const ConstructionParams& p);

}  // namespace ccmx::core
