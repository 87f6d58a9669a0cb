// Analysis half of ccmx::obs: reading what the reporting half wrote.
//
// Every bench binary emits a ccmx.run_report/1 JSON; this module closes
// the loop.  validate_run_report() is the schema check for one report,
// load_report_dir() pulls a directory of BENCH_*.json into validated
// documents, diff_reports() compares two such directories
// benchmark-by-benchmark and counter-by-counter with noise-aware
// thresholds (relative tolerance plus a minimum-iterations gate, so a
// 2-iteration timing can never fail a CI run), and append_trajectory()
// accumulates one JSONL line per report in bench/out/trajectory.jsonl so
// the repo has a perf trajectory.  The diff is emitted both as
// machine-readable ccmx.bench_diff/1 JSON (validated by
// validate_bench_diff, gating CI) and as a human markdown summary.  Part
// of the offline library (ccmx_obs_offline), like every reader in obs/.
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
/// differ and the trajectory need (pre-extracted so callers do not have
/// to walk the DOM again).
struct LoadedReport {
  std::string path;        // file it came from
  std::string name;        // report "name" ("exact_cc", "ccmx_cli", ...)
  std::string git_sha;
  std::string build_type;
  std::int64_t unix_time = 0;
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
  /// Relative change beyond which a counter is flagged.  Counters are
  /// deterministic per iteration, but google-benchmark picks iteration
  /// counts adaptively, so totals drift a few percent between identical
  /// runs; the default only flags algorithmic-scale changes.
  double counter_rel_tol = 0.25;
  /// Relative max_rss change beyond which memory is flagged.
  double rss_rel_tol = 0.30;
  /// Relative change of retired instructions per iteration beyond which
  /// a benchmark is flagged.  Instruction counts are near-deterministic
  /// (unlike cpu_time), so this gate is far tighter than the cpu one —
  /// but per-row attribution includes the calibration iterations of the
  /// batch, which adds a few percent of run-to-run wobble on top of the
  /// true count (see bench_common.hpp); CI loosens it accordingly.
  double insn_rel_tol = 0.02;
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

/// One obs counter compared across the two runs.
struct CounterDelta {
  std::string report;
  std::string counter;  // e.g. "exact_cc.nodes"
  double baseline = 0.0;
  double candidate = 0.0;
  double ratio = 0.0;
  Verdict verdict = Verdict::kWithinNoise;
};

/// Retired instructions per iteration compared across the two runs.
/// Emitted only when BOTH sides carry an available hw block for the
/// benchmark — reports from degraded machines or predating hw counters
/// simply produce no row ("no hw verdict"), never an error.
struct InsnDelta {
  std::string report;
  std::string benchmark;
  double baseline_insn = 0.0;   // instructions per iteration
  double candidate_insn = 0.0;
  double baseline_ipc = 0.0;
  double candidate_ipc = 0.0;
  double ratio = 0.0;  // candidate / baseline insn per iteration
  Verdict verdict = Verdict::kWithinNoise;
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
  std::vector<InsnDelta> insn;
  std::vector<RssDelta> rss;
  /// Load/validation problems from either side (diagnostic, not gating).
  std::vector<std::string> problems;

  [[nodiscard]] std::size_t count(Verdict v) const noexcept;
  /// The CI gate: true when any benchmark cpu_time regressed beyond
  /// tolerance.  Counter and RSS regressions are surfaced but advisory.
  [[nodiscard]] bool has_cpu_regression() const noexcept;
  /// The second gate: true when any benchmark's instructions-per-
  /// iteration regressed beyond insn_rel_tol.  Vacuously false when no
  /// benchmark carried hw on both sides.
  [[nodiscard]] bool has_insn_regression() const noexcept;
};

/// Diffs candidate against baseline.  Reports are matched by name;
/// benchmarks and counters by name within the matched report.
[[nodiscard]] BenchDiff diff_reports(const LoadResult& baseline,
                                     const LoadResult& candidate,
                                     const DiffThresholds& thresholds);

/// ccmx.bench_diff/1 JSON document (one object, trailing newline).
[[nodiscard]] std::string render_bench_diff_json(const BenchDiff& diff);

/// Human summary (GitHub-flavored markdown tables).
[[nodiscard]] std::string render_bench_diff_markdown(const BenchDiff& diff);

/// Schema check for a parsed ccmx.bench_diff/1 document; empty = valid.
[[nodiscard]] std::vector<std::string> validate_bench_diff(
    const json::Value& doc);

struct TrajectoryAppend {
  std::size_t appended = 0;
  std::size_t skipped = 0;  // already present (same name+git_sha+unix_time)
};

/// Appends one ccmx.trajectory/1 JSONL line per report to
/// `trajectory_path` (created along with parent directories when absent).
/// Idempotent: a report whose (name, git_sha, unix_time) already appears
/// in the file is skipped, so re-running the tool cannot duplicate rows.
TrajectoryAppend append_trajectory(const LoadResult& reports,
                                   const std::string& trajectory_path);

/// One (report, benchmark) cpu_time series extracted from a
/// ccmx.trajectory/1 JSONL file — the raw points behind both the trend
/// fits and the dashboard sparklines.
struct TrajectorySeries {
  std::string report;     // trajectory row "name" (e.g. "exact_cc")
  std::string benchmark;  // e.g. "BM_ExactCcEquality/3"
  /// (unix_time, cpu_time) sorted by time.
  std::vector<std::pair<double, double>> points;
};

struct TrajectorySeriesResult {
  std::string trajectory_path;
  std::size_t rows = 0;     // trajectory rows consumed
  std::size_t skipped = 0;  // unparseable or foreign-schema lines
  /// Sorted by (report, benchmark).
  std::vector<TrajectorySeries> series;
};

/// Extracts every per-benchmark cpu_time series from a trajectory file.
/// Malformed or foreign-schema lines are counted, not fatal; a missing
/// file yields an empty result.  trend_from_trajectory() and the HTML
/// dashboard both build on this.
[[nodiscard]] TrajectorySeriesResult load_trajectory_series(
    const std::string& trajectory_path);

/// Least-squares drift of one benchmark's cpu_time across the trajectory:
/// cpu_time ~ a + b * t fitted over every trajectory row that carries the
/// benchmark, with b rescaled to per-day units.
struct TrendFit {
  std::string report;     // trajectory row "name" (e.g. "exact_cc")
  std::string benchmark;  // e.g. "BM_ExactCcEquality/3"
  std::size_t points = 0;
  double span_days = 0.0;          // last - first unix_time
  double mean_cpu = 0.0;           // mean cpu_time over the points
  double slope_per_day = 0.0;      // cpu_time units gained per day
  double rel_slope_per_day = 0.0;  // slope_per_day / mean_cpu
  double r2 = 0.0;                 // goodness of the linear fit in [0, 1]
};

struct TrendResult {
  std::size_t rows = 0;     // trajectory rows consumed
  std::size_t skipped = 0;  // unparseable or foreign-schema lines
  /// Sorted by |rel_slope_per_day| descending — worst drift first.
  std::vector<TrendFit> fits;
  /// Series dropped for having fewer than three rows ("report/bench").
  std::vector<std::string> thin_series;
};

/// Fits every (report, benchmark) cpu_time series in a ccmx.trajectory/1
/// JSONL file.  Series with fewer than three rows, or spanning a single
/// instant, are listed in `thin_series` instead of fitted — two commits
/// cannot distinguish drift from noise.  A missing file yields an empty
/// result.
[[nodiscard]] TrendResult trend_from_trajectory(
    const std::string& trajectory_path);

}  // namespace ccmx::obs
