// E3 — Lemma 3.4: there are q^{(n-1)^2/4} rows of the restricted truth
// matrix, each with a DISTINCT column span Span(A(C)) of dimension n - 1.
//
// Exhaustive verification at (n=5, k=3), (5, 4) and (7, 2) (all 7^4 =
// 2401, 15^4 = 50625 and 3^9 = 19683 C instances); sampled distinctness at
// larger parameters.
#include "bench_common.hpp"
#include "core/census.hpp"

namespace {

using namespace ccmx;

void print_tables() {
  bench::print_header(
      "E3 — Lemma 3.4 (distinct spans)",
      "distinct == tested certifies injectivity C -> Span(A(C)); exhaustive\n"
      "rows additionally pin the exact count q^{(n-1)^2/4}.");
  util::TextTable table({"n", "k", "q", "rows q^{(n-1)^2/4}", "tested",
                         "distinct", "mode"});
  struct Case {
    std::size_t n;
    unsigned k;
    std::uint64_t max_instances;
  };
  for (const Case c : {Case{5, 3, 2401}, Case{5, 4, 50625}, Case{7, 2, 20000},
                       Case{7, 3, 400}, Case{9, 2, 400}, Case{9, 3, 200},
                       Case{11, 2, 200}}) {
    const core::ConstructionParams p(c.n, c.k);
    util::Xoshiro256 rng(c.n * 17 + c.k);
    const core::SpanCensus census = core::lemma34_census(p, c.max_instances, rng);
    table.row(c.n, c.k, p.q(), core::total_rows(p).to_string(), census.tested,
              census.distinct, census.exhaustive ? "exhaustive" : "sampled");
  }
  bench::print_table(table);

  bench::print_header(
      "E3b — Lemma 3.6 flavour (span intersections shrink)",
      "Dimension of the intersection of the spans of r random rows; the\n"
      "fixed first (n-1)/2 columns keep it >= (n-1)/2, free columns decay.");
  util::TextTable profile({"n", "k", "r=1", "r=2", "r=3", "r=4", "r=6"});
  for (const auto& [n, k] :
       std::vector<std::pair<std::size_t, unsigned>>{{7, 2}, {9, 2}, {9, 3}}) {
    const core::ConstructionParams p(n, k);
    util::Xoshiro256 rng(n * 19 + k);
    const auto dims = core::span_intersection_profile(p, 6, rng);
    profile.row(n, k, dims[0], dims[1], dims[2], dims[3], dims[5]);
  }
  bench::print_table(profile);
}

void BM_SpanCanonicalForm(benchmark::State& state) {
  // (n, k): the k = 2 forms stay on the checked int64 path; every (21, 8)
  // form has entries past int64, so it takes the BigInt fallback.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<unsigned>(state.range(1));
  const core::ConstructionParams p(n, k);
  util::Xoshiro256 rng(n);
  const auto parts = core::FreeParts::random(p, rng);
  if (core::span_canonical(p, parts.c).fallback != (k != 2)) {
    state.SkipWithError("the form did not take the expected path");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::span_canonical(p, parts.c).rank);
  }
}
BENCHMARK(BM_SpanCanonicalForm)
    ->Args({7, 2})
    ->Args({9, 2})
    ->Args({11, 2})
    ->Args({15, 2})
    ->Args({21, 8});

void BM_Lemma34Census(benchmark::State& state) {
  // Exhaustive (7, 2) census: 3^9 span forms keyed by int64 words on the
  // parallel enumeration engine.  Process CPU time counts the pool's
  // workers as well as the caller.
  const core::ConstructionParams p(7, 2);
  for (auto _ : state) {
    util::Xoshiro256 rng(3);
    benchmark::DoNotOptimize(core::lemma34_census(p, 20000, rng).distinct);
  }
}
BENCHMARK(BM_Lemma34Census)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime();

}  // namespace

CCMX_BENCH_MAIN(print_tables)
