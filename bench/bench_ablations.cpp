// A0 — design-choice ablations (DESIGN.md section 5 follow-ups):
//   * exact determinant engines: Bareiss vs cofactor vs |det| via Smith
//     normal form — all must agree; costs differ sharply,
//   * mesh scheduling: sequential vs wavefront-pipelined (same traffic,
//     Theta(n^2) -> Theta(n) cycles, AT^2 approaching the bound),
//   * census engines: serial recompute vs pooled recompute sweeps vs the
//     shift histogram (identical ones counts, very different cost).
#include <cmath>

#include "bench_common.hpp"
#include "core/census.hpp"
#include "linalg/det.hpp"
#include "util/parallel.hpp"
#include "linalg/hnf.hpp"
#include "vlsi/mesh.hpp"
#include "vlsi/tradeoffs.hpp"

namespace {

using namespace ccmx;
using bench::random_entries;

void print_tables() {
  bench::print_header(
      "A0a — determinant engine agreement",
      "Three independent exact engines on the same inputs (incl. singular).");
  util::TextTable det_table(
      {"n", "bits", "trials", "bareiss=snf(|.|)", "bareiss=cofactor"});
  for (const auto& [n, bits] : std::vector<std::pair<std::size_t, unsigned>>{
           {4, 8}, {6, 16}, {8, 32}}) {
    util::Xoshiro256 rng(n * 7 + bits);
    const int trials = 10;
    int snf_ok = 0, cof_ok = 0;
    for (int trial = 0; trial < trials; ++trial) {
      la::IntMatrix m = random_entries(n, n, bits, rng);
      if (trial % 3 == 0) {
        for (std::size_t i = 0; i < n; ++i) m(i, n - 1) = m(i, 0);
      }
      const num::BigInt det = la::det_bareiss(m);
      snf_ok += la::abs_det_via_snf(m) == det.abs();
      cof_ok += n > 8 || la::det_cofactor(m) == det;
    }
    det_table.row(n, bits, trials, snf_ok, cof_ok);
  }
  bench::print_table(det_table);

  bench::print_header(
      "A0b — mesh scheduling ablation",
      "Identical dataflow and bisection traffic; the pipelined schedule cuts\n"
      "T from Theta(n^2) to Theta(n), pulling AT^2 toward the Omega((kn^2)^2)\n"
      "floor (ratio column; smaller = tighter design).");
  util::TextTable mesh({"n", "T seq", "T pipe", "AT^2/C^2 seq",
                        "AT^2/C^2 pipe"});
  const unsigned k = 8;
  vlsi::MeshConfig config;
  config.input_bits = k;
  for (const std::size_t n : {8u, 16u, 24u, 32u}) {
    util::Xoshiro256 rng(n);
    const la::IntMatrix m = random_entries(n, n, k, rng);
    const auto seq = vlsi::simulate_mesh(m, config);
    const auto pipe = vlsi::simulate_mesh_pipelined(m, config);
    const double c = vlsi::comm_complexity(n, k);
    const double area = static_cast<double>(seq.area_units);
    mesh.row(n, seq.cycles, pipe.cycles,
             util::fmt_double(area * std::pow(static_cast<double>(seq.cycles), 2) /
                                  (c * c),
                              1),
             util::fmt_double(area * std::pow(static_cast<double>(pipe.cycles), 2) /
                                  (c * c),
                              1));
  }
  bench::print_table(mesh);
}

void BM_DetBareiss(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(n);
  const la::IntMatrix m = random_entries(n, n, 32, rng);
  for (auto _ : state) benchmark::DoNotOptimize(la::det_bareiss(m).signum());
}
void BM_DetSnf(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(n);
  const la::IntMatrix m = random_entries(n, n, 32, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::abs_det_via_snf(m).signum());
  }
}
BENCHMARK(BM_DetBareiss)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_DetSnf)->Arg(4)->Arg(8);

// BigInt representation ablation: one op sequence (mul, add, sub, word
// reduce), run once on word-sized operands that stay in the inline form and
// once on the narrowest operands that live on the heap (three limbs).  The
// gap between the two rows is the small-value win; docs/PERFORMANCE.md
// explains how to read them together with the bigint.small_ops /
// bigint.promotions counters.
void bigint_chain_bench(benchmark::State& state, std::size_t limbs) {
  util::Xoshiro256 rng(limbs);
  constexpr std::size_t kOps = 64;
  std::vector<num::BigInt> xs;
  std::vector<num::BigInt> ys;
  for (std::size_t i = 0; i < kOps; ++i) {
    num::BigInt x;
    num::BigInt y;
    for (std::size_t l = 0; l < limbs; ++l) {
      x = (x << 64) + static_cast<std::int64_t>(rng() >> 1);
      y = (y << 64) + static_cast<std::int64_t>(rng() >> 1);
    }
    xs.push_back(x);
    ys.push_back(y);
  }
  for (auto _ : state) {
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < kOps; ++i) {
      num::BigInt t = xs[i] * ys[i];
      t += ys[i];
      t -= xs[i];
      sink += t.mod_u64(0x1fffffffffffffffULL);
    }
    benchmark::DoNotOptimize(sink);
  }
}
void BM_BigIntSmall(benchmark::State& state) { bigint_chain_bench(state, 1); }
void BM_BigIntHeap(benchmark::State& state) { bigint_chain_bench(state, 3); }
// Fold-style accumulation (value += modulus * delta, then modulus *= step):
// the value crosses the promotion boundary after two folds, so the loop
// exercises the word fast paths of BigInt::add_mul against a heap
// accumulator.
void BM_BigIntMixed(benchmark::State& state) {
  util::Xoshiro256 rng(7);
  constexpr std::size_t kFolds = 24;
  std::vector<std::int64_t> deltas;
  std::vector<std::int64_t> steps;
  for (std::size_t i = 0; i < kFolds; ++i) {
    deltas.push_back(static_cast<std::int64_t>(rng() >> 3));
    steps.push_back(static_cast<std::int64_t>((rng() >> 3) | 1u));
  }
  for (auto _ : state) {
    num::BigInt value(1);
    num::BigInt modulus(1);
    for (std::size_t i = 0; i < kFolds; ++i) {
      value.add_mul(modulus, deltas[i]);
      modulus *= steps[i];
    }
    benchmark::DoNotOptimize(value.signum());
  }
}
BENCHMARK(BM_BigIntSmall);
BENCHMARK(BM_BigIntHeap);
BENCHMARK(BM_BigIntMixed);

// Census engine ablation: the exact (7, 2) census (3^14 digit vectors)
// by the recompute sweep on one thread and on the pool, and by the shift
// histogram.  All produce identical counts (tests/test_census.cpp pins
// that); the rows record the speedup from the worker pool and from the
// histogram as run-report data.
void census_engine_bench(benchmark::State& state, std::size_t degree,
                         bool delta) {
  const core::ConstructionParams p(7, 2);
  util::Xoshiro256 rng(1);
  const auto parts = core::FreeParts::random(p, rng);
  core::CensusOptions options;
  options.budget = std::uint64_t{1} << 24;
  options.delta = delta;
  util::set_parallelism(degree);
  for (auto _ : state) {
    util::Xoshiro256 inner(2);
    benchmark::DoNotOptimize(
        core::row_census(p, parts.c, options, inner).exact);
  }
  util::set_parallelism(0);
}
void BM_RowCensusSerial(benchmark::State& state) {
  census_engine_bench(state, /*degree=*/1, /*delta=*/false);
}
void BM_RowCensusPool(benchmark::State& state) {
  census_engine_bench(state, /*degree=*/0, /*delta=*/false);
}
void BM_RowCensusHistogram(benchmark::State& state) {
  census_engine_bench(state, /*degree=*/0, /*delta=*/true);
}
BENCHMARK(BM_RowCensusSerial)->Unit(benchmark::kMillisecond)->Iterations(2);
BENCHMARK(BM_RowCensusPool)->Unit(benchmark::kMillisecond)->Iterations(2);
BENCHMARK(BM_RowCensusHistogram)->Unit(benchmark::kMillisecond);

}  // namespace

CCMX_BENCH_MAIN(print_tables)
