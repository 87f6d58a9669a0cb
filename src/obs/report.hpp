// Machine-readable run reports (schema "ccmx.run_report/1").
//
// A RunReport is the JSON summary every bench binary (and, via
// CCMX_REPORT, the CLI) writes at exit: identity (name, git SHA, build
// type, hardware parallelism), wall/CPU seconds, the google-benchmark
// timing rows, the counters a bench binary recorded after its tables,
// and whatever the obs registry accumulated (counters, histogram
// summaries, attributes).  Reports land in bench/out/ (override with
// CCMX_BENCH_OUT) as BENCH_<name>.json; `ccmx_insight diff` compares two
// directories of them.  This header is the writer; the schema check
// that reads a report back (validate_run_report) is in obs/analysis.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/hwcounters.hpp"

namespace ccmx::obs {

/// One google-benchmark timing row (times in the reported unit).  Rows
/// whose run errored are kept (name + error flag, zero timings) so a
/// benchmark that failed to run is visible in the report instead of
/// silently missing.
struct BenchmarkRun {
  std::string name;
  std::int64_t iterations = 0;
  double real_time = 0.0;
  double cpu_time = 0.0;
  std::string time_unit = "ns";
  bool error = false;
  std::string error_message;
};

/// Process-wide rusage deltas beyond max RSS — page faults diagnose
/// memory behaviour, context switches diagnose trace-sink `block` stalls.
struct RusageExtras {
  std::int64_t minor_faults = 0;
  std::int64_t major_faults = 0;
  std::int64_t voluntary_ctx_switches = 0;
  std::int64_t involuntary_ctx_switches = 0;
};

struct RunReport {
  std::string name;                 // e.g. "exact_cc" -> BENCH_exact_cc.json
  std::vector<std::string> argv;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  /// Peak resident set size; <= 0 means "capture via getrusage at render
  /// time" (the report is written at process exit, so that is the peak).
  std::int64_t max_rss_bytes = 0;
  /// Process-total hardware counters; when not available at render time
  /// the renderer captures hw_read() itself (same rule as max_rss_bytes)
  /// and degrades to {"available": false, "reason": ...}.
  HwCounters hw;
  std::vector<BenchmarkRun> benchmarks;
  /// Counters a bench binary snapshots after its tables and before the
  /// timings run (see bench_common.hpp), rendered as "table_counters".
  /// They count fixed work, so `ccmx_insight diff` gates them exactly.
  /// Absent for runs with no table phase (ccmx_cli).
  std::optional<std::vector<std::pair<std::string, std::uint64_t>>>
      table_counters;
};

/// Git SHA baked in at configure time (CCMX_GIT_SHA compile definition);
/// the CCMX_GIT_SHA environment variable overrides it, "unknown" otherwise.
[[nodiscard]] std::string build_git_sha();

/// Peak resident set size of this process in bytes (getrusage), 0 when
/// the platform cannot report it.
[[nodiscard]] std::int64_t current_max_rss_bytes() noexcept;

/// Fault and context-switch totals of this process (getrusage), zeros
/// when the platform cannot report them.
[[nodiscard]] RusageExtras current_rusage_extras() noexcept;

/// Renders the report plus the current obs snapshot as a JSON document.
[[nodiscard]] std::string render_run_report(const RunReport& report);

/// bench/out/BENCH_<name>.json, with the directory overridable via the
/// CCMX_BENCH_OUT environment variable.
[[nodiscard]] std::string default_report_path(std::string_view name);

/// Renders and writes the report, creating parent directories as needed.
/// The write is atomic: the JSON lands in a temp file in the target
/// directory first and is then renamed over `path`, so a killed process
/// or two racing bench binaries can never leave a truncated report that
/// later fails a strict parse.  Returns the path written.
std::string write_run_report(const RunReport& report, const std::string& path);

}  // namespace ccmx::obs
