// Analysis module: report-directory loading, noise-aware diffing, the
// ccmx.bench_diff/1 schema, and trajectory idempotence.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/schemas.hpp"
#include "obs/json_reader.hpp"
#include "obs/report.hpp"

namespace {

namespace fs = std::filesystem;
using namespace ccmx::obs;

/// A temp directory that cleans up after the test.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static int counter = 0;
    path_ = fs::temp_directory_path() /
            ("ccmx_test_analysis_" + tag + "_" + std::to_string(counter++));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }
  [[nodiscard]] fs::path path() const { return path_; }

 private:
  fs::path path_;
};

void write_file(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

/// A minimal valid ccmx.run_report/1 document.  `cpu_scale` multiplies
/// every benchmark cpu_time, so a candidate derived from the same call is
/// a deterministic, exactly-known ratio away from the baseline.
std::string make_report(const std::string& name, double cpu_scale = 1.0,
                        std::int64_t iterations = 100,
                        double counter_value = 1000.0,
                        std::int64_t rss = 1 << 20,
                        const std::string& git_sha = "cafe0123",
                        std::int64_t unix_time = 1754500000) {
  std::ostringstream out;
  out << "{\"schema\":\"ccmx.run_report/1\",\"name\":\"" << name << "\","
      << "\"git_sha\":\"" << git_sha << "\",\"build_type\":\"Release\","
      << "\"unix_time\":" << unix_time << ","
      << "\"hardware_parallelism\":4,\"trace_enabled\":false,"
      << "\"wall_seconds\":1.5,\"cpu_seconds\":1.4,"
      << "\"max_rss_bytes\":" << rss << ","
      << "\"argv\":[\"bench\"],\"attributes\":{},"
      << "\"counters\":{\"" << name << ".calls\":" << counter_value << "},"
      << "\"histograms\":{},"
      << "\"benchmarks\":["
      << "{\"name\":\"BM_Fast/1\",\"iterations\":" << iterations << ","
      << "\"real_time\":" << 10.0 * cpu_scale << ","
      << "\"cpu_time\":" << 10.0 * cpu_scale << ",\"time_unit\":\"us\"},"
      << "{\"name\":\"BM_Slow/8\",\"iterations\":" << iterations << ","
      << "\"real_time\":" << 200.0 * cpu_scale << ","
      << "\"cpu_time\":" << 200.0 * cpu_scale << ",\"time_unit\":\"us\"}"
      << "]}\n";
  return out.str();
}

TEST(LoadReportDir, LoadsValidSkipsMalformed) {
  TempDir dir("load");
  write_file(dir.path() / "BENCH_good.json", make_report("good"));
  write_file(dir.path() / "BENCH_bad.json", "{\"schema\":\"nope\"}\n");
  write_file(dir.path() / "BENCH_junk.json", "not json at all");
  write_file(dir.path() / "ignored.txt", "no");
  write_file(dir.path() / "REPORT_other.json", make_report("other"));

  const LoadResult result = load_report_dir(dir.str());
  ASSERT_EQ(result.reports.size(), 1u);
  EXPECT_EQ(result.reports[0].name, "good");
  EXPECT_EQ(result.reports[0].git_sha, "cafe0123");
  EXPECT_EQ(result.reports[0].max_rss_bytes, 1 << 20);
  // The two malformed BENCH_ files are reported (one problem per schema
  // violation, each prefixed with its path); non-BENCH_ files are simply
  // out of scope.
  ASSERT_FALSE(result.problems.empty());
  bool saw_bad = false;
  bool saw_junk = false;
  for (const std::string& p : result.problems) {
    EXPECT_EQ(p.find("BENCH_good"), std::string::npos) << p;
    saw_bad = saw_bad || p.find("BENCH_bad.json") != std::string::npos;
    saw_junk = saw_junk || p.find("BENCH_junk.json") != std::string::npos;
  }
  EXPECT_TRUE(saw_bad);
  EXPECT_TRUE(saw_junk);
}

TEST(LoadReportDir, MissingDirectoryIsEmptyNotFatal) {
  const LoadResult result = load_report_dir("/nonexistent/ccmx/baseline");
  EXPECT_TRUE(result.reports.empty());
  EXPECT_TRUE(result.problems.empty());
}

LoadResult load_one(const std::string& tag, const std::string& content) {
  TempDir dir(tag);
  write_file(dir.path() / "BENCH_r.json", content);
  return load_report_dir(dir.str());
  // TempDir is gone after return, but the LoadResult owns parsed copies.
}

TEST(DiffReports, IdenticalRunsAreWithinNoise) {
  const LoadResult base = load_one("b0", make_report("exact_cc"));
  const LoadResult cand = load_one("c0", make_report("exact_cc"));
  const BenchDiff diff = diff_reports(base, cand, DiffThresholds{});
  ASSERT_EQ(diff.benchmarks.size(), 2u);
  for (const BenchmarkDelta& d : diff.benchmarks) {
    EXPECT_EQ(d.verdict, Verdict::kWithinNoise) << d.benchmark;
    EXPECT_DOUBLE_EQ(d.ratio, 1.0);
  }
  EXPECT_FALSE(diff.has_cpu_regression());
  EXPECT_EQ(diff.count(Verdict::kRegression), 0u);
}

TEST(DiffReports, FlagsDeterministicSlowdownAsRegression) {
  // Candidate derived from the same report content with cpu_time * 1.25:
  // the ratio is exactly 1.25, beyond the 20% default tolerance.
  const LoadResult base = load_one("b1", make_report("exact_cc", 1.0));
  const LoadResult cand = load_one("c1", make_report("exact_cc", 1.25));
  const BenchDiff diff = diff_reports(base, cand, DiffThresholds{});
  ASSERT_EQ(diff.benchmarks.size(), 2u);
  for (const BenchmarkDelta& d : diff.benchmarks) {
    EXPECT_EQ(d.verdict, Verdict::kRegression) << d.benchmark;
    EXPECT_NEAR(d.ratio, 1.25, 1e-12);
  }
  EXPECT_TRUE(diff.has_cpu_regression());
  EXPECT_EQ(diff.count(Verdict::kRegression), 2u);
}

TEST(DiffReports, FlagsSpeedupAsImprovement) {
  const LoadResult base = load_one("b2", make_report("exact_cc", 1.0));
  const LoadResult cand = load_one("c2", make_report("exact_cc", 0.5));
  const BenchDiff diff = diff_reports(base, cand, DiffThresholds{});
  for (const BenchmarkDelta& d : diff.benchmarks) {
    EXPECT_EQ(d.verdict, Verdict::kImprovement) << d.benchmark;
  }
  EXPECT_FALSE(diff.has_cpu_regression());
}

TEST(DiffReports, LowIterationTimingsNeverGate) {
  // A 2x slowdown measured with 2 iterations is below the
  // min-iterations gate: reported, but never a regression.
  const LoadResult base =
      load_one("b3", make_report("exact_cc", 1.0, /*iterations=*/2));
  const LoadResult cand =
      load_one("c3", make_report("exact_cc", 2.0, /*iterations=*/2));
  const BenchDiff diff = diff_reports(base, cand, DiffThresholds{});
  for (const BenchmarkDelta& d : diff.benchmarks) {
    EXPECT_EQ(d.verdict, Verdict::kLowIterations) << d.benchmark;
  }
  EXPECT_FALSE(diff.has_cpu_regression());
  EXPECT_EQ(diff.count(Verdict::kLowIterations), 2u);
}

TEST(DiffReports, TightenedToleranceCatchesSmallDrift) {
  const LoadResult base = load_one("b4", make_report("exact_cc", 1.0));
  const LoadResult cand = load_one("c4", make_report("exact_cc", 1.10));
  DiffThresholds tight;
  tight.cpu_rel_tol = 0.05;
  const BenchDiff diff = diff_reports(base, cand, tight);
  EXPECT_TRUE(diff.has_cpu_regression());
}

TEST(DiffReports, CountersAndRssCompared) {
  const LoadResult base = load_one(
      "b5", make_report("exact_cc", 1.0, 100, /*counter_value=*/1000.0,
                        /*rss=*/1000000));
  // Counter doubled (beyond 25% tolerance), RSS halved (beyond 30%).
  const LoadResult cand = load_one(
      "c5", make_report("exact_cc", 1.0, 100, /*counter_value=*/2000.0,
                        /*rss=*/500000));
  const BenchDiff diff = diff_reports(base, cand, DiffThresholds{});
  ASSERT_EQ(diff.counters.size(), 1u);
  EXPECT_EQ(diff.counters[0].counter, "exact_cc.calls");
  EXPECT_EQ(diff.counters[0].verdict, Verdict::kRegression);
  ASSERT_EQ(diff.rss.size(), 1u);
  EXPECT_EQ(diff.rss[0].verdict, Verdict::kImprovement);
  // Counter/RSS regressions are advisory: the CI gate is cpu-only.
  EXPECT_FALSE(diff.has_cpu_regression());
}

TEST(DiffReports, UnmatchedReportsAndBenchmarks) {
  TempDir bdir("b6");
  write_file(bdir.path() / "BENCH_a.json", make_report("alpha"));
  write_file(bdir.path() / "BENCH_b.json", make_report("beta"));
  const LoadResult base = load_report_dir(bdir.str());
  TempDir cdir("c6");
  write_file(cdir.path() / "BENCH_a.json", make_report("alpha"));
  write_file(cdir.path() / "BENCH_g.json", make_report("gamma"));
  const LoadResult cand = load_report_dir(cdir.str());

  const BenchDiff diff = diff_reports(base, cand, DiffThresholds{});
  EXPECT_EQ(diff.count(Verdict::kOnlyBaseline), 2u);   // beta's 2 benchmarks
  EXPECT_EQ(diff.count(Verdict::kOnlyCandidate), 2u);  // gamma's 2
  EXPECT_FALSE(diff.has_cpu_regression());
}

/// Like make_report, but every benchmark row carries an hw block whose
/// instruction counts scale by `insn_scale` — so an instruction
/// regression can be staged with zero noise.
std::string make_hw_report(const std::string& name, double insn_scale = 1.0,
                           std::int64_t iterations = 100) {
  std::ostringstream out;
  out << "{\"schema\":\"ccmx.run_report/1\",\"name\":\"" << name << "\","
      << "\"git_sha\":\"cafe0123\",\"build_type\":\"Release\","
      << "\"unix_time\":1754500000,"
      << "\"hardware_parallelism\":4,\"trace_enabled\":false,"
      << "\"wall_seconds\":1.5,\"cpu_seconds\":1.4,"
      << "\"max_rss_bytes\":1048576,"
      << "\"argv\":[\"bench\"],\"attributes\":{},"
      << "\"counters\":{},\"histograms\":{},"
      << "\"benchmarks\":[";
  const struct {
    const char* bench;
    double insn_per_iter;
  } rows[] = {{"BM_Fast/1", 1000.0}, {"BM_Slow/8", 5000.0}};
  for (std::size_t i = 0; i < 2; ++i) {
    const double insn = rows[i].insn_per_iter * insn_scale;
    if (i != 0) out << ",";
    out << "{\"name\":\"" << rows[i].bench << "\","
        << "\"iterations\":" << iterations << ","
        << "\"real_time\":10.0,\"cpu_time\":10.0,\"time_unit\":\"us\","
        << "\"hw\":{\"available\":true,"
        << "\"instructions\":" << insn * static_cast<double>(iterations)
        << ",\"cycles\":" << insn * static_cast<double>(iterations) / 2.0
        << ",\"ipc\":2.0},"
        << "\"insn_per_iteration\":" << insn << "}";
  }
  out << "]}\n";
  return out.str();
}

TEST(DiffReports, InsnGateFlagsInstructionRegression) {
  // +10% retired instructions per iteration on both benchmarks; cpu_time
  // identical, so only the instruction gate can fire.
  const LoadResult base = load_one("hb1", make_hw_report("exact_cc", 1.0));
  const LoadResult cand = load_one("hc1", make_hw_report("exact_cc", 1.10));
  const BenchDiff diff = diff_reports(base, cand, DiffThresholds{});
  EXPECT_FALSE(diff.has_cpu_regression());
  ASSERT_EQ(diff.insn.size(), 2u);
  for (const InsnDelta& d : diff.insn) {
    EXPECT_NEAR(d.ratio, 1.10, 1e-9) << d.benchmark;
    EXPECT_EQ(d.verdict, Verdict::kRegression) << d.benchmark;
  }
  EXPECT_TRUE(diff.has_insn_regression());

  // The same drift passes a loosened gate (CI on a shared runner).
  DiffThresholds loose;
  loose.insn_rel_tol = 0.5;
  const BenchDiff ok = diff_reports(base, cand, loose);
  EXPECT_FALSE(ok.has_insn_regression());
  for (const InsnDelta& d : ok.insn) {
    EXPECT_EQ(d.verdict, Verdict::kWithinNoise) << d.benchmark;
  }
}

TEST(DiffReports, InsnImprovementNeverGates) {
  const LoadResult base = load_one("hb2", make_hw_report("exact_cc", 1.0));
  const LoadResult cand = load_one("hc2", make_hw_report("exact_cc", 0.80));
  const BenchDiff diff = diff_reports(base, cand, DiffThresholds{});
  ASSERT_EQ(diff.insn.size(), 2u);
  EXPECT_EQ(diff.insn[0].verdict, Verdict::kImprovement);
  EXPECT_FALSE(diff.has_insn_regression());
}

TEST(DiffReports, MixedOldAndNewReportsDegradeToNoHwVerdict) {
  // Baseline predates hw counters (or ran degraded); candidate has them.
  // The diff must note the asymmetry and skip the gate — never error,
  // never fabricate a verdict from one side's numbers.
  const LoadResult base = load_one("hb3", make_report("exact_cc"));
  const LoadResult cand = load_one("hc3", make_hw_report("exact_cc", 5.0));
  const BenchDiff diff = diff_reports(base, cand, DiffThresholds{});
  EXPECT_TRUE(diff.insn.empty());
  EXPECT_FALSE(diff.has_insn_regression());
  bool noted = false;
  for (const std::string& p : diff.problems) {
    noted = noted ||
            p.find("hw counters available on only one side") !=
                std::string::npos;
  }
  EXPECT_TRUE(noted);
  const std::string md = render_bench_diff_markdown(diff);
  EXPECT_NE(md.find("no hw verdict"), std::string::npos);

  // Two hw-less sides (both old, or both on a degraded machine): not
  // even a problem note — nothing to compare is the normal state there.
  const LoadResult base2 = load_one("hb4", make_report("exact_cc"));
  const LoadResult cand2 = load_one("hc4", make_report("exact_cc"));
  const BenchDiff quiet = diff_reports(base2, cand2, DiffThresholds{});
  EXPECT_TRUE(quiet.insn.empty());
  EXPECT_FALSE(quiet.has_insn_regression());
  for (const std::string& p : quiet.problems) {
    EXPECT_EQ(p.find("hw counters"), std::string::npos) << p;
  }
}

TEST(BenchDiffJson, InsnRowsRoundTripThroughTheSchemaCheck) {
  const LoadResult base = load_one("hb5", make_hw_report("exact_cc", 1.0));
  const LoadResult cand = load_one("hc5", make_hw_report("exact_cc", 1.10));
  const BenchDiff diff = diff_reports(base, cand, DiffThresholds{});
  const std::string text = render_bench_diff_json(diff);
  const ccmx::obs::json::Value doc = ccmx::obs::json::parse(text);
  const std::vector<std::string> problems = validate_bench_diff(doc);
  EXPECT_TRUE(problems.empty())
      << (problems.empty() ? "" : problems.front());
  EXPECT_DOUBLE_EQ(doc.find("thresholds")->find("insn_rel_tol")->number,
                   0.02);
  EXPECT_TRUE(doc.find("summary")->find("insn_regression")->boolean);
  const ccmx::obs::json::Value* insn = doc.find("insn");
  ASSERT_NE(insn, nullptr);
  ASSERT_EQ(insn->array.size(), 2u);
  EXPECT_EQ(insn->array[0].find("verdict")->string, "regression");
  EXPECT_NEAR(insn->array[0].find("ratio")->number, 1.10, 1e-9);
}

TEST(BenchDiffJson, RoundTripsThroughTheSchemaCheck) {
  const LoadResult base = load_one("b7", make_report("exact_cc", 1.0));
  const LoadResult cand = load_one("c7", make_report("exact_cc", 1.25));
  const BenchDiff diff = diff_reports(base, cand, DiffThresholds{});

  const std::string text = render_bench_diff_json(diff);
  const ccmx::obs::json::Value doc = ccmx::obs::json::parse(text);
  const std::vector<std::string> problems = validate_bench_diff(doc);
  EXPECT_TRUE(problems.empty())
      << (problems.empty() ? "" : problems.front());

  // Spot-check the document content, not just its shape.
  EXPECT_EQ(doc.find("schema")->string, kBenchDiffSchema);
  const ccmx::obs::json::Value* summary = doc.find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->find("regressions")->number, 2.0);
  EXPECT_TRUE(summary->find("cpu_regression")->boolean);
}

TEST(BenchDiffJson, ValidatorRejectsCorruptedDocuments) {
  EXPECT_FALSE(
      validate_bench_diff(ccmx::obs::json::parse("{}")).empty());
  EXPECT_FALSE(validate_bench_diff(
                   ccmx::obs::json::parse(
                       "{\"schema\":\"ccmx.bench_diff/2\"}"))
                   .empty());
}

TEST(BenchDiffJson, ValidatorRequiresTheInstructionGate) {
  const LoadResult base = load_one("b9", make_report("exact_cc", 1.0));
  const LoadResult cand = load_one("c9", make_report("exact_cc", 1.0));
  const ccmx::obs::json::Value doc = ccmx::obs::json::parse(
      render_bench_diff_json(diff_reports(base, cand, DiffThresholds{})));
  ASSERT_TRUE(validate_bench_diff(doc).empty());
  // Drop each instruction-gate member the writer emits, one at a time.
  const auto without = [&doc](std::string_view section, std::string_view key) {
    ccmx::obs::json::Value cut = doc;
    auto* members = &cut.object;  // the top level unless `section` names one
    for (auto& [name, value] : cut.object) {
      if (name == section) members = &value.object;
    }
    std::erase_if(*members,
                  [&](const auto& member) { return member.first == key; });
    return cut;
  };
  const ccmx::obs::json::Value no_rows = without("", "insn");
  const ccmx::obs::json::Value no_tol = without("thresholds", "insn_rel_tol");
  const ccmx::obs::json::Value no_gate = without("summary", "insn_regression");
  for (const auto& [cut, problem] :
       {std::pair{&no_rows, "missing array \"insn\""},
        std::pair{&no_tol, "missing numeric \"insn_rel_tol\""},
        std::pair{&no_gate, "missing bool \"insn_regression\""}}) {
    const std::vector<std::string> problems = validate_bench_diff(*cut);
    ASSERT_EQ(problems.size(), 1u) << problem;
    EXPECT_NE(problems[0].find(problem), std::string::npos) << problems[0];
  }
}

TEST(BenchDiffMarkdown, MentionsTheRegression) {
  const LoadResult base = load_one("b8", make_report("exact_cc", 1.0));
  const LoadResult cand = load_one("c8", make_report("exact_cc", 1.25));
  const BenchDiff diff = diff_reports(base, cand, DiffThresholds{});
  const std::string md = render_bench_diff_markdown(diff);
  EXPECT_NE(md.find("regression"), std::string::npos);
  EXPECT_NE(md.find("BM_Slow/8"), std::string::npos);
  EXPECT_NE(md.find("1.25"), std::string::npos);
}

TEST(Trajectory, AppendIsIdempotent) {
  TempDir rdir("t0");
  write_file(rdir.path() / "BENCH_a.json", make_report("alpha"));
  write_file(rdir.path() / "BENCH_b.json", make_report("beta"));
  const LoadResult reports = load_report_dir(rdir.str());

  TempDir tdir("t1");
  const std::string traj =
      (tdir.path() / "sub" / "trajectory.jsonl").string();

  const TrajectoryAppend first = append_trajectory(reports, traj);
  EXPECT_EQ(first.appended, 2u);
  EXPECT_EQ(first.skipped, 0u);
  const TrajectoryAppend second = append_trajectory(reports, traj);
  EXPECT_EQ(second.appended, 0u);
  EXPECT_EQ(second.skipped, 2u);

  // Every line is a standalone ccmx.trajectory/1 object carrying the
  // per-benchmark cpu times.
  std::ifstream in(traj);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    const ccmx::obs::json::Value v = ccmx::obs::json::parse(line);
    EXPECT_EQ(v.find("schema")->string, kTrajectorySchema);
    ASSERT_NE(v.find("benchmarks"), nullptr);
    EXPECT_NE(v.find("benchmarks")->find("BM_Fast/1"), nullptr);
  }
  EXPECT_EQ(lines, 2u);

  // A genuinely new run (different unix_time) does append.
  TempDir rdir2("t2");
  write_file(rdir2.path() / "BENCH_a.json",
             make_report("alpha", 1.0, 100, 1000.0, 1 << 20, "cafe0123",
                         1754500999));
  const TrajectoryAppend third =
      append_trajectory(load_report_dir(rdir2.str()), traj);
  EXPECT_EQ(third.appended, 1u);
}

/// One ccmx.trajectory/1 JSONL row, as append_trajectory writes them.
std::string trajectory_row(const std::string& name, std::int64_t unix_time,
                           double fast_cpu, double flat_cpu) {
  std::ostringstream out;
  out << "{\"schema\":\"" << kTrajectorySchema << "\",\"name\":\"" << name
      << "\",\"git_sha\":\"cafe0123\",\"unix_time\":" << unix_time << ","
      << "\"benchmarks\":{\"BM_Fast/1\":" << fast_cpu << ","
      << "\"BM_Flat/1\":" << flat_cpu << "}}\n";
  return out.str();
}

TEST(TrajectorySeries, ExtractsSortedPerBenchmarkSeries) {
  TempDir dir("series");
  const fs::path traj = dir.path() / "trajectory.jsonl";
  // Rows intentionally out of time order, plus one foreign-schema line.
  std::ostringstream rows;
  rows << trajectory_row("alpha", 2000, 12.0, 5.0)
       << "{\"schema\":\"ccmx.run_report/1\",\"name\":\"noise\"}\n"
       << trajectory_row("alpha", 1000, 11.0, 5.0);
  write_file(traj, rows.str());

  const TrajectorySeriesResult result =
      load_trajectory_series(traj.string());
  EXPECT_EQ(result.rows, 2u);
  EXPECT_EQ(result.skipped, 1u);
  ASSERT_EQ(result.series.size(), 2u);  // sorted by (report, benchmark)
  EXPECT_EQ(result.series[0].benchmark, "BM_Fast/1");
  EXPECT_EQ(result.series[1].benchmark, "BM_Flat/1");
  ASSERT_EQ(result.series[0].points.size(), 2u);
  // Points come back time-sorted regardless of file order.
  EXPECT_EQ(result.series[0].points[0].first, 1000.0);
  EXPECT_EQ(result.series[0].points[0].second, 11.0);
  EXPECT_EQ(result.series[0].points[1].second, 12.0);

  // A missing file is empty, not fatal (same contract as trend).
  const TrajectorySeriesResult missing =
      load_trajectory_series((dir.path() / "absent.jsonl").string());
  EXPECT_TRUE(missing.series.empty());
  EXPECT_EQ(missing.rows, 0u);
}

TEST(Trend, FitsLinearDriftAndFlatSeries) {
  TempDir dir("trend");
  const fs::path traj = dir.path() / "trajectory.jsonl";
  // BM_Fast drifts +1us/day over four daily runs; BM_Flat is constant.
  std::ostringstream rows;
  for (int day = 0; day < 4; ++day) {
    rows << trajectory_row("alpha", 1754500000 + day * 86400, 10.0 + day,
                           5.0);
  }
  write_file(traj, rows.str());

  const TrendResult trend = trend_from_trajectory(traj.string());
  EXPECT_EQ(trend.rows, 4u);
  EXPECT_EQ(trend.skipped, 0u);
  EXPECT_TRUE(trend.thin_series.empty());
  ASSERT_EQ(trend.fits.size(), 2u);

  // Sorted by |relative slope| descending: the drifting series leads.
  const TrendFit& fast = trend.fits[0];
  EXPECT_EQ(fast.benchmark, "BM_Fast/1");
  EXPECT_EQ(fast.report, "alpha");
  EXPECT_EQ(fast.points, 4u);
  EXPECT_NEAR(fast.span_days, 3.0, 1e-9);
  EXPECT_NEAR(fast.mean_cpu, 11.5, 1e-9);
  EXPECT_NEAR(fast.slope_per_day, 1.0, 1e-9);
  EXPECT_NEAR(fast.rel_slope_per_day, 1.0 / 11.5, 1e-9);
  EXPECT_NEAR(fast.r2, 1.0, 1e-12);

  const TrendFit& flat = trend.fits[1];
  EXPECT_EQ(flat.benchmark, "BM_Flat/1");
  EXPECT_NEAR(flat.slope_per_day, 0.0, 1e-12);
  EXPECT_NEAR(flat.r2, 1.0, 1e-12);  // zero-slope line fits perfectly
}

TEST(Trend, SkipsMalformedRowsAndReportsThinSeries) {
  TempDir dir("trend2");
  const fs::path traj = dir.path() / "trajectory.jsonl";
  std::ostringstream rows;
  rows << trajectory_row("alpha", 1754500000, 10.0, 5.0)
       << trajectory_row("alpha", 1754586400, 11.0, 5.0)  // only 2 points
       << "{not json at all\n"
       << "{\"schema\":\"ccmx.run_report/1\",\"name\":\"alpha\","
          "\"benchmarks\":{}}\n";
  write_file(traj, rows.str());

  const TrendResult trend = trend_from_trajectory(traj.string());
  EXPECT_EQ(trend.rows, 2u);
  EXPECT_EQ(trend.skipped, 2u);
  EXPECT_TRUE(trend.fits.empty());
  ASSERT_EQ(trend.thin_series.size(), 2u);
  EXPECT_EQ(trend.thin_series[0], "alpha/BM_Fast/1");
}

TEST(Trend, MissingTrajectoryIsEmptyNotFatal) {
  const TrendResult trend =
      trend_from_trajectory("/nonexistent/ccmx/trajectory.jsonl");
  EXPECT_EQ(trend.rows, 0u);
  EXPECT_TRUE(trend.fits.empty());
}

TEST(Verdicts, NamesAreStable) {
  // The CI gate greps these out of the JSON; renaming them is a schema
  // break.
  EXPECT_EQ(verdict_name(Verdict::kWithinNoise), "within_noise");
  EXPECT_EQ(verdict_name(Verdict::kImprovement), "improvement");
  EXPECT_EQ(verdict_name(Verdict::kRegression), "regression");
  EXPECT_EQ(verdict_name(Verdict::kLowIterations), "low_iterations");
  EXPECT_EQ(verdict_name(Verdict::kOnlyBaseline), "only_baseline");
  EXPECT_EQ(verdict_name(Verdict::kOnlyCandidate), "only_candidate");
}

}  // namespace
