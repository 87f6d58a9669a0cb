// Shared helpers for the experiment binaries.
//
// Every bench binary prints its reproduction table(s) first (the rows
// recorded in EXPERIMENTS.md), then runs its google-benchmark timing
// section, and finally writes a machine-readable RunReport to
// bench/out/BENCH_<name>.json (schema ccmx.run_report/1; see
// docs/OBSERVABILITY.md).  All randomness is seeded, so tables reproduce
// byte-for-byte, and so do the counters of the table phase, which the
// report carries as "table_counters" for `ccmx_insight diff` to gate
// exactly; the timings and end-of-process counters come on top.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "linalg/convert.hpp"
#include "obs/hwcounters.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace ccmx::bench {

inline la::IntMatrix random_entries(std::size_t rows, std::size_t cols,
                                    unsigned k, util::Xoshiro256& rng) {
  return la::IntMatrix::generate(rows, cols, [&](std::size_t, std::size_t) {
    return num::BigInt(
        static_cast<std::int64_t>(rng.below(std::uint64_t{1} << k)));
  });
}

inline void print_header(const std::string& experiment,
                         const std::string& claim) {
  std::cout << "\n=== " << experiment << " ===\n" << claim << "\n\n";
}

inline void print_table(const util::TextTable& table) {
  table.print(std::cout);
  std::cout << std::flush;
}

/// Counter families the table-phase block leaves out, because they
/// measure the host or the scheduling rather than the work (measured at
/// CCMX_THREADS = 1..4 on every bench binary's table phase):
inline constexpr std::string_view kUngatedCounterFamilies[] = {
    // Pool bookkeeping (jobs and items handed to the pool).  It did not
    // move, but it counts how a loop is scheduled, not what it computes.
    "parallel.",
    // The observability layer's own ledger: bench_obs's profiled table
    // phase read obs.prof.captured 107, 106, 109, 109; obs.overhead.*
    // are nanoseconds.
    "obs.",
    // parallel_reduce adds one BigInt partial sum per worker: lemma35's
    // tables count 365,914 at 1 thread and 365,929 at 4.
    "bigint.small_ops",
};

/// The table-phase block of the run report: every counter of `snap`
/// outside kUngatedCounterFamilies, sorted by name.
inline std::vector<std::pair<std::string, std::uint64_t>> table_counters(
    obs::Snapshot snap) {
  std::erase_if(snap.counters, [](const auto& counter) {
    return std::any_of(std::begin(kUngatedCounterFamilies),
                       std::end(kUngatedCounterFamilies),
                       [&](std::string_view family) {
                         return counter.first.starts_with(family);
                       });
  });
  std::sort(snap.counters.begin(), snap.counters.end());
  return std::move(snap.counters);
}

/// Console reporter that also collects every timing row for the RunReport.
/// Errored runs are kept (name + error flag, zero timings) so a benchmark
/// that failed to run shows up in the report — and in bench_main's exit
/// status — instead of silently disappearing.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      obs::BenchmarkRun out;
      out.name = run.benchmark_name();
      if (run.error_occurred) {
        out.error = true;
        out.error_message = run.error_message;
        ++errors_;
      } else {
        out.iterations = run.iterations;
        out.real_time = run.GetAdjustedRealTime();
        out.cpu_time = run.GetAdjustedCPUTime();
        out.time_unit = benchmark::GetTimeUnitString(run.time_unit);
      }
      runs_.push_back(std::move(out));
    }
    ConsoleReporter::ReportRuns(report);
  }

  [[nodiscard]] const std::vector<obs::BenchmarkRun>& runs() const noexcept {
    return runs_;
  }
  [[nodiscard]] std::size_t errors() const noexcept { return errors_; }

 private:
  std::vector<obs::BenchmarkRun> runs_;
  std::size_t errors_ = 0;
};

/// "path/to/bench_exact_cc" -> "exact_cc" (report key and file stem).
inline std::string bench_name_from_argv0(std::string_view argv0) {
  const std::size_t slash = argv0.find_last_of('/');
  std::string name(slash == std::string_view::npos
                       ? argv0
                       : argv0.substr(slash + 1));
  if (name.rfind("bench_", 0) == 0) name.erase(0, 6);
  return name.empty() ? "unknown" : name;
}

/// Boilerplate main body: tables, their counters, timings, then the
/// RunReport.
inline int bench_main(int argc, char** argv, void (*print_tables)()) {
  const util::WallTimer timer;
  // Open the perf fds (inherit=1 covers pool threads spawned later) and
  // the optional telemetry sampler before any work runs.
  const obs::HwRegion process_hw;
  obs::TelemetrySampler sampler;
  sampler.start_from_env();
  // Sampling CPU profiler (CCMX_PROF_HZ / CCMX_PROF_FILE); degrades to
  // a reasoned no-op when unconfigured or unavailable.
  obs::profiler_start_from_env();
  {
    const obs::ScopedSpan span("bench.tables");
    print_tables();
  }
  // The pool is idle here, so the snapshot is exact.
  obs::RunReport report;
  report.table_counters = table_counters(obs::snapshot());
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CollectingReporter reporter;
  {
    const obs::ScopedSpan span("bench.timings");
    ::benchmark::RunSpecifiedBenchmarks(&reporter);
  }
  ::benchmark::Shutdown();

  report.name = bench_name_from_argv0(argv[0]);
  for (int i = 0; i < argc; ++i) report.argv.emplace_back(argv[i]);
  report.wall_seconds = timer.seconds();
  report.cpu_seconds = timer.cpu_seconds();
  report.hw = process_hw.delta();
  report.benchmarks = reporter.runs();
  obs::profiler_stop();  // drain rings + ledger; folds obs.prof.* counters
  sampler.stop();  // final timeseries row before the report is published
  obs::flush_thread();
  const std::string path =
      obs::write_run_report(report, obs::default_report_path(report.name));
  std::cout << "run report: " << path << "\n";
  if (reporter.errors() != 0) {
    std::cerr << reporter.errors()
              << " benchmark(s) errored; see the run report\n";
    return 1;
  }
  return 0;
}

/// Boilerplate main: print tables, then timings, then the run report.
#define CCMX_BENCH_MAIN(print_tables_fn)                       \
  int main(int argc, char** argv) {                            \
    return ::ccmx::bench::bench_main(argc, argv, print_tables_fn); \
  }

}  // namespace ccmx::bench
