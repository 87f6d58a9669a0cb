// Analysis half of ccmx::obs: reading what the reporting half wrote.
//
// Every bench binary emits a ccmx.run_report/1 JSON; this module closes
// the loop.  validate_run_report() is the schema check for one report,
// load_report_dir() pulls a directory of BENCH_*.json into validated
// documents, and diff_reports() compares two such directories with two
// gates: benchmark cpu_time against a relative tolerance (plus a
// minimum-iterations gate, so a 2-iteration timing can never fail a CI
// run), and the table-phase counters each bench binary records after
// its tables (RunReport::table_counters), which must match exactly.
// The diff is emitted both as machine-readable ccmx.bench_diff/2 JSON
// (validated by validate_bench_diff) and as a human markdown summary.
// Part of the offline library (ccmx_obs_offline), like every reader in
// obs/.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json_reader.hpp"

namespace ccmx::obs {

/// Schema check for a parsed ccmx.run_report/1 document; returns
/// human-readable problems (empty means valid).
[[nodiscard]] std::vector<std::string> validate_run_report(
    const json::Value& doc);

/// One validated ccmx.run_report/1 document plus the identity fields the
/// differ and the dashboard need (pre-extracted so callers do not have
/// to walk the DOM again).
struct LoadedReport {
  std::string path;        // file it came from
  std::string name;        // report "name" ("exact_cc", "ccmx_cli", ...)
  std::string git_sha;
  std::string build_type;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  std::int64_t max_rss_bytes = 0;  // 0 when the report predates the field
  json::Value doc;
};

/// Result of scanning a directory for BENCH_*.json files.  Files that do
/// not parse or do not validate land in `problems` ("path: why") and are
/// excluded from `reports`; reports are sorted by name so diffs are
/// deterministic.
struct LoadResult {
  std::vector<LoadedReport> reports;
  std::vector<std::string> problems;
};

/// Loads every BENCH_*.json under `dir` (non-recursive).  A missing or
/// empty directory yields an empty result with no problems — callers
/// decide whether that is an error (CI treats a missing baseline as
/// "skip with a warning", not a failure).
[[nodiscard]] LoadResult load_report_dir(const std::string& dir);

/// Parses + validates a single report file; on success fills `out` and
/// returns empty, otherwise returns the problems.
[[nodiscard]] std::vector<std::string> load_report_file(
    const std::string& path, LoadedReport& out);

/// Noise model for the differ.
struct DiffThresholds {
  /// Relative cpu_time change beyond which a benchmark is flagged
  /// (0.20 = ±20%).  Timings on shared CI runners are noisy; keep this
  /// generous there.
  double cpu_rel_tol = 0.20;
  /// Relative max_rss change beyond which memory is flagged (advisory).
  double rss_rel_tol = 0.30;
  /// A benchmark timed with fewer iterations than this (on either side)
  /// is reported but never judged: too few samples to call noise.
  std::int64_t min_iterations = 3;
};

enum class Verdict : std::uint8_t {
  kWithinNoise,    // |ratio - 1| <= tolerance
  kImprovement,    // candidate better beyond tolerance
  kRegression,     // candidate worse beyond tolerance
  kLowIterations,  // timing present but under the min-iterations gate
  kOnlyBaseline,   // benchmark/counter disappeared
  kOnlyCandidate,  // benchmark/counter is new
  kEqual,          // table counter identical on both sides
  kChanged,        // table counter differs, in either direction
};

[[nodiscard]] std::string_view verdict_name(Verdict v) noexcept;

/// One benchmark compared across the two runs (keyed by report name +
/// benchmark name).
struct BenchmarkDelta {
  std::string report;     // e.g. "exact_cc"
  std::string benchmark;  // e.g. "BM_ExactCcEquality/3"
  std::string time_unit;
  double baseline_cpu = 0.0;
  double candidate_cpu = 0.0;
  std::int64_t baseline_iterations = 0;
  std::int64_t candidate_iterations = 0;
  double ratio = 0.0;  // candidate / baseline (0 when one side missing)
  Verdict verdict = Verdict::kWithinNoise;
};

/// One table-phase counter compared exactly across the two runs.  The
/// verdict is kEqual, kChanged, kOnlyBaseline or kOnlyCandidate; a
/// missing side reads 0.
struct CounterDelta {
  std::string report;
  std::string counter;  // e.g. "linalg.exact.primes"
  double baseline = 0.0;
  double candidate = 0.0;
  Verdict verdict = Verdict::kEqual;
};

/// Peak-RSS comparison for one report pair (skipped when either side
/// predates max_rss_bytes).
struct RssDelta {
  std::string report;
  std::int64_t baseline_bytes = 0;
  std::int64_t candidate_bytes = 0;
  double ratio = 0.0;
  Verdict verdict = Verdict::kWithinNoise;
};

struct BenchDiff {
  DiffThresholds thresholds;
  std::string baseline_dir;
  std::string candidate_dir;
  std::vector<BenchmarkDelta> benchmarks;
  std::vector<CounterDelta> counters;
  std::vector<RssDelta> rss;
  /// Load/validation problems from either side (diagnostic, not gating).
  std::vector<std::string> problems;

  [[nodiscard]] std::size_t count(Verdict v) const noexcept;
  /// The timing gate: true when any benchmark cpu_time regressed beyond
  /// tolerance.  RSS regressions are surfaced but advisory.
  [[nodiscard]] bool has_cpu_regression() const noexcept;
  /// The exact gate: true when any table counter changed, in either
  /// direction, or exists on one side only.
  [[nodiscard]] bool has_counter_mismatch() const noexcept;
};

/// Diffs candidate against baseline.  Reports are matched by name;
/// benchmarks and table counters by name within the matched report (a
/// report on one side only makes all its table counters one-sided).
[[nodiscard]] BenchDiff diff_reports(const LoadResult& baseline,
                                     const LoadResult& candidate,
                                     const DiffThresholds& thresholds);

/// ccmx.bench_diff/2 JSON document (one object, trailing newline).
[[nodiscard]] std::string render_bench_diff_json(const BenchDiff& diff);

/// Human summary (GitHub-flavored markdown tables).
[[nodiscard]] std::string render_bench_diff_markdown(const BenchDiff& diff);

/// Schema check for a parsed ccmx.bench_diff/2 document; empty = valid.
/// A diff is written and read by the same CI job, so every field the
/// current writer emits is required, both gates' included.
[[nodiscard]] std::vector<std::string> validate_bench_diff(
    const json::Value& doc);

}  // namespace ccmx::obs
