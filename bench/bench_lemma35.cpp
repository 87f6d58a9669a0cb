// E4 — Lemma 3.5: every truth-matrix row contains between
// q^{n^2/2 - O(n log_q n)} and q^{n^2/2} "one" (singular) entries, and the
// constructive part (a) completes any (C, E) to a singular instance.
//
// Exact censuses at (n, k) = (7, 2), (7, 3) and (9, 2) via the shift
// histogram; stratified estimates at larger parameters; completion success
// rate swept broadly.  The timed rows: an exact (7, 2) census, a sampled
// (11, 2) one and Lemma 3.5(a) completions.
#include "bench_common.hpp"
#include "core/census.hpp"

namespace {

using namespace ccmx;

void table_census() {
  bench::print_header(
      "E4a — Lemma 3.5(b) row census",
      "log_q(ones) must land between the constructive floor half*L and the\n"
      "cap n^2/2 (exponents in base q).  'exact' rows count every (D, E)\n"
      "through the histogram of the D_0 interval shift; others are\n"
      "stratified estimates (100k draws).  digits = half*L + (half-1)*G is\n"
      "the width of the (E, D_1..) digit vectors.");
  util::TextTable table({"n", "k", "q", "log_q(ones)", "floor half*L",
                         "cap n^2/2", "log_q(cols)", "log_q(ones)-digits",
                         "mode"});
  // (7, 3) and (9, 2) get budgets of their whole spaces, 7^15 and 3^28:
  // their shift supports (6.7 M and 259 k values) fit the histogram's cap.
  // A budget that large on a row the cap refuses would sweep every vector.
  struct Row {
    std::size_t n;
    unsigned k;
    std::uint64_t budget;
  };
  constexpr std::uint64_t kSweepBudget = std::uint64_t{1} << 24;
  for (const Row& row : {Row{7, 2, kSweepBudget}, Row{7, 3, 4747561509943},
                         Row{9, 2, 22876792454961}, Row{9, 3, kSweepBudget},
                         Row{11, 2, kSweepBudget}}) {
    const core::ConstructionParams p(row.n, row.k);
    util::Xoshiro256 rng(row.n * 23 + row.k);
    const auto parts = core::FreeParts::random(p, rng);
    const core::RowCensus census =
        core::row_census(p, parts.c, row.budget, /*samples=*/100000, rng);
    const auto bounds = core::lemma35_bounds(p);
    const std::size_t digits = p.half() * p.l() + (p.half() - 1) * p.g();
    table.row(row.n, row.k, p.q(), util::fmt_double(census.log_q_ones, 2),
              util::fmt_double(bounds.lower_exponent, 1),
              util::fmt_double(bounds.upper_exponent, 1),
              util::fmt_double(census.log_q_columns, 1),
              util::fmt_double(
                  census.log_q_ones - static_cast<double>(digits), 2),
              census.exact ? "exact" : "stratified");
  }
  bench::print_table(table);
}

void table_completion() {
  bench::print_header(
      "E4b — Lemma 3.5(a) constructive completion",
      "For random (C, E), construct (D, y) making M singular.  The lemma\n"
      "claims this always succeeds; we sweep parameters and count.");
  util::TextTable table({"n", "k", "trials", "successes", "all-singular"});
  for (const auto& [n, k] : std::vector<std::pair<std::size_t, unsigned>>{
           {7, 2}, {7, 4}, {9, 2}, {9, 3}, {11, 2}, {13, 2}, {13, 5}}) {
    const core::ConstructionParams p(n, k);
    util::Xoshiro256 rng(n * 29 + k);
    const int trials = 200;
    int successes = 0;
    bool all_singular = true;
    for (int trial = 0; trial < trials; ++trial) {
      const auto seed = core::FreeParts::random(p, rng);
      const auto done = core::lemma35_complete(p, seed.c, seed.e);
      if (done) {
        ++successes;
        all_singular = all_singular && core::restricted_singular(p, *done);
      }
    }
    table.row(n, k, trials, successes, all_singular ? "yes" : "NO");
  }
  bench::print_table(table);
}

void print_tables() {
  table_census();
  table_completion();
}

void BM_RowCensusExact(benchmark::State& state) {
  const core::ConstructionParams p(7, 2);
  util::Xoshiro256 rng(1);
  const auto parts = core::FreeParts::random(p, rng);
  for (auto _ : state) {
    util::Xoshiro256 inner(2);
    benchmark::DoNotOptimize(
        core::row_census(p, parts.c, std::uint64_t{1} << 24, 0, inner).exact);
  }
}
BENCHMARK(BM_RowCensusExact)->Unit(benchmark::kMillisecond);

// The sampled census at (11, 2): 2e5 draws of 45 digits each, on the int64
// shift model and the worker pool.  Process CPU time counts the pool's
// workers as well as the caller; 0.2 s of it is about four runs, enough
// for the cpu-time gate of `ccmx_insight diff`, which ignores rows of
// fewer than three.
void BM_RowCensusSampled(benchmark::State& state) {
  const core::ConstructionParams p(11, 2);
  util::Xoshiro256 rng(1);
  const auto parts = core::FreeParts::random(p, rng);
  core::CensusOptions options;
  options.samples = 200000;
  for (auto _ : state) {
    util::Xoshiro256 inner(2);
    benchmark::DoNotOptimize(core::row_census(p, parts.c, options, inner).ones);
  }
}
BENCHMARK(BM_RowCensusSampled)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->MinTime(0.2);

void BM_Lemma35Completion(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const core::ConstructionParams p(n, 2);
  util::Xoshiro256 rng(n);
  const auto seed = core::FreeParts::random(p, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::lemma35_complete(p, seed.c, seed.e).has_value());
  }
}
BENCHMARK(BM_Lemma35Completion)->Arg(7)->Arg(11)->Arg(15);

}  // namespace

CCMX_BENCH_MAIN(print_tables)
