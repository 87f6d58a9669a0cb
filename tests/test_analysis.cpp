// Analysis module: report-directory loading, the two diff gates (cpu time
// within a tolerance, table counters exactly) and the ccmx.bench_diff/2
// schema.
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

/// The table-phase block make_report writes unless told otherwise.
constexpr const char* kTableCounters =
    "\"comm.bits.round1\":128,\"linalg.exact.primes\":1000";

/// A minimal valid ccmx.run_report/1 document.  `cpu_scale` multiplies
/// every benchmark cpu_time, so a candidate derived from the same call is
/// a deterministic, exactly-known ratio away from the baseline.
/// `table_counters` is the body of the table-phase block, or nullptr for
/// a report without one.
std::string make_report(const std::string& name, double cpu_scale = 1.0,
                        std::int64_t iterations = 100,
                        const char* table_counters = kTableCounters,
                        std::int64_t rss = 1 << 20, bool traced = true) {
  std::ostringstream out;
  out << "{\"schema\":\"ccmx.run_report/1\",\"name\":\"" << name << "\","
      << "\"git_sha\":\"cafe0123\",\"build_type\":\"Release\","
      << "\"unix_time\":1754500000,"
      << "\"hardware_parallelism\":4,"
      << "\"trace_enabled\":" << (traced ? "true" : "false") << ","
      << "\"wall_seconds\":1.5,\"cpu_seconds\":1.4,"
      << "\"max_rss_bytes\":" << rss << ","
      << "\"argv\":[\"bench\"],\"attributes\":{},"
      << "\"counters\":{\"" << name << ".calls\":1000},";
  if (table_counters != nullptr) {
    out << "\"table_counters\":{" << table_counters << "},";
  }
  out << "\"histograms\":{},"
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
      "b5", make_report("exact_cc", 1.0, 100, kTableCounters,
                        /*rss=*/1000000));
  // One table counter moved by one, RSS halved (beyond 30%).
  const LoadResult cand = load_one(
      "c5", make_report("exact_cc", 1.0, 100,
                        "\"comm.bits.round1\":128,"
                        "\"linalg.exact.primes\":1001",
                        /*rss=*/500000));
  const BenchDiff diff = diff_reports(base, cand, DiffThresholds{});
  ASSERT_EQ(diff.counters.size(), 2u);  // sorted by name within the report
  EXPECT_EQ(diff.counters[0].counter, "comm.bits.round1");
  EXPECT_EQ(diff.counters[0].verdict, Verdict::kEqual);
  EXPECT_EQ(diff.counters[1].counter, "linalg.exact.primes");
  EXPECT_EQ(diff.counters[1].verdict, Verdict::kChanged);
  EXPECT_TRUE(diff.has_counter_mismatch());
  ASSERT_EQ(diff.rss.size(), 1u);
  EXPECT_EQ(diff.rss[0].verdict, Verdict::kImprovement);
  // RSS is advisory, and equal timings leave the cpu gate quiet.
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
  // beta's and gamma's 2 benchmarks and 2 table counters each.
  EXPECT_EQ(diff.count(Verdict::kOnlyBaseline), 4u);
  EXPECT_EQ(diff.count(Verdict::kOnlyCandidate), 4u);
  EXPECT_FALSE(diff.has_cpu_regression());
  // A vanished bench binary takes its counts with it: the gate fails.
  EXPECT_TRUE(diff.has_counter_mismatch());
}

TEST(DiffReports, EqualTableCountersPass) {
  const LoadResult base = load_one("b10", make_report("corollary13"));
  const LoadResult cand = load_one("c10", make_report("corollary13", 1.1));
  const BenchDiff diff = diff_reports(base, cand, DiffThresholds{});
  ASSERT_EQ(diff.counters.size(), 2u);
  for (const CounterDelta& d : diff.counters) {
    EXPECT_EQ(d.verdict, Verdict::kEqual) << d.counter;
    EXPECT_EQ(d.baseline, d.candidate) << d.counter;
  }
  EXPECT_FALSE(diff.has_counter_mismatch());
  EXPECT_NE(render_bench_diff_markdown(diff).find(
                "All 2 table counters equal."),
            std::string::npos);

  // Two reports without a table phase have nothing to gate.
  const LoadResult bare = load_one("b11", make_report("cli", 1.0, 100,
                                                       nullptr));
  const BenchDiff none = diff_reports(bare, bare, DiffThresholds{});
  EXPECT_TRUE(none.counters.empty());
  EXPECT_FALSE(none.has_counter_mismatch());
}

TEST(DiffReports, CounterGateNamesAChangedCounter) {
  // A count that rises or falls by one both fail: either way the
  // committed baseline no longer describes the algorithm.
  const LoadResult base = load_one("b12", make_report("corollary13"));
  for (const char* primes : {"1001", "999"}) {
    const std::string block =
        std::string("\"comm.bits.round1\":128,\"linalg.exact.primes\":") +
        primes;
    const LoadResult cand =
        load_one("c12", make_report("corollary13", 1.0, 100, block.c_str()));
    const BenchDiff diff = diff_reports(base, cand, DiffThresholds{});
    EXPECT_TRUE(diff.has_counter_mismatch()) << primes;
    EXPECT_FALSE(diff.has_cpu_regression());
    EXPECT_EQ(diff.count(Verdict::kChanged), 1u);
    const std::string md = render_bench_diff_markdown(diff);
    EXPECT_NE(md.find("| corollary13 | linalg.exact.primes | 1000 | " +
                      std::string(primes) + " | changed |"),
              std::string::npos)
        << md;
  }
}

TEST(DiffReports, OneSidedCounterFails) {
  const LoadResult base = load_one("b13", make_report("lemma35"));
  // A counter that only the candidate records, one that only the
  // baseline records, and a candidate with no table phase at all.
  const LoadResult added = load_one(
      "c13", make_report("lemma35", 1.0, 100,
                         "\"census.exact_sweeps\":2,\"comm.bits.round1\":128,"
                         "\"linalg.exact.primes\":1000"));
  const LoadResult dropped = load_one(
      "c14", make_report("lemma35", 1.0, 100, "\"comm.bits.round1\":128"));
  const LoadResult no_block =
      load_one("c15", make_report("lemma35", 1.0, 100, nullptr));

  const BenchDiff plus = diff_reports(base, added, DiffThresholds{});
  EXPECT_TRUE(plus.has_counter_mismatch());
  EXPECT_EQ(plus.count(Verdict::kOnlyCandidate), 1u);
  EXPECT_NE(render_bench_diff_markdown(plus).find(
                "| lemma35 | census.exact_sweeps | - | 2 | only_candidate |"),
            std::string::npos);

  const BenchDiff minus = diff_reports(base, dropped, DiffThresholds{});
  EXPECT_TRUE(minus.has_counter_mismatch());
  EXPECT_EQ(minus.count(Verdict::kOnlyBaseline), 1u);
  EXPECT_NE(render_bench_diff_markdown(minus).find(
                "| lemma35 | linalg.exact.primes | 1000 | - | only_baseline |"),
            std::string::npos);

  const BenchDiff gone = diff_reports(base, no_block, DiffThresholds{});
  EXPECT_TRUE(gone.has_counter_mismatch());
  EXPECT_EQ(gone.count(Verdict::kOnlyBaseline), 2u);
}

TEST(DiffReports, UntracedCandidateFails) {
  // An untraced run writes the same counter names with every value 0; it
  // must fail the gate, not pass with zeros.
  const LoadResult base = load_one("b16", make_report("singularity_cc"));
  const LoadResult cand = load_one(
      "c16", make_report("singularity_cc", 1.0, 100,
                         "\"comm.bits.round1\":0,\"linalg.exact.primes\":0",
                         1 << 20, /*traced=*/false));
  const BenchDiff diff = diff_reports(base, cand, DiffThresholds{});
  EXPECT_TRUE(diff.has_counter_mismatch());
  EXPECT_EQ(diff.count(Verdict::kChanged), 2u);
  const std::string md = render_bench_diff_markdown(diff);
  EXPECT_NE(md.find("| singularity_cc | comm.bits.round1 | 128 | 0 | changed |"),
            std::string::npos)
      << md;
  EXPECT_NE(md.find("only the baseline ran with CCMX_TRACE"),
            std::string::npos)
      << md;
}

TEST(BenchDiffJson, CounterRowsRoundTripThroughTheSchemaCheck) {
  const LoadResult base = load_one("b15", make_report("exact_cc"));
  const LoadResult cand = load_one(
      "c15", make_report("exact_cc", 1.0, 100, "\"comm.bits.round1\":129"));
  const BenchDiff diff = diff_reports(base, cand, DiffThresholds{});
  const std::string text = render_bench_diff_json(diff);
  const ccmx::obs::json::Value doc = ccmx::obs::json::parse(text);
  const std::vector<std::string> problems = validate_bench_diff(doc);
  EXPECT_TRUE(problems.empty())
      << (problems.empty() ? "" : problems.front());
  EXPECT_TRUE(doc.find("summary")->find("counter_mismatch")->boolean);
  EXPECT_FALSE(doc.find("summary")->find("cpu_regression")->boolean);
  const ccmx::obs::json::Value* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->array.size(), 2u);
  EXPECT_EQ(counters->array[0].find("counter")->string, "comm.bits.round1");
  EXPECT_EQ(counters->array[0].find("verdict")->string, "changed");
  EXPECT_EQ(counters->array[0].find("baseline")->number, 128.0);
  EXPECT_EQ(counters->array[0].find("candidate")->number, 129.0);
  EXPECT_EQ(counters->array[1].find("verdict")->string, "only_baseline");
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
  // A /1 document (with its instruction rows) is not read at all.
  const LoadResult base = load_one("b17", make_report("exact_cc"));
  ccmx::obs::json::Value old = ccmx::obs::json::parse(
      render_bench_diff_json(diff_reports(base, base, DiffThresholds{})));
  old.object.front().second.string = "ccmx.bench_diff/1";
  const std::vector<std::string> problems = validate_bench_diff(old);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("unrecognized schema"), std::string::npos);
}

TEST(BenchDiffJson, ValidatorRequiresTheCounterGate) {
  const LoadResult base = load_one("b9", make_report("exact_cc", 1.0));
  const LoadResult cand = load_one("c9", make_report("exact_cc", 1.0));
  const ccmx::obs::json::Value doc = ccmx::obs::json::parse(
      render_bench_diff_json(diff_reports(base, cand, DiffThresholds{})));
  ASSERT_TRUE(validate_bench_diff(doc).empty());
  // Drop each counter-gate member the writer emits, one at a time.
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
  const ccmx::obs::json::Value no_rows = without("", "counters");
  const ccmx::obs::json::Value no_gate = without("summary", "counter_mismatch");
  for (const auto& [cut, problem] :
       {std::pair{&no_rows, "missing array \"counters\""},
        std::pair{&no_gate, "missing bool \"counter_mismatch\""}}) {
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

TEST(Verdicts, NamesAreStable) {
  // The CI gate greps these out of the JSON; renaming them is a schema
  // break.
  EXPECT_EQ(verdict_name(Verdict::kWithinNoise), "within_noise");
  EXPECT_EQ(verdict_name(Verdict::kImprovement), "improvement");
  EXPECT_EQ(verdict_name(Verdict::kRegression), "regression");
  EXPECT_EQ(verdict_name(Verdict::kLowIterations), "low_iterations");
  EXPECT_EQ(verdict_name(Verdict::kOnlyBaseline), "only_baseline");
  EXPECT_EQ(verdict_name(Verdict::kOnlyCandidate), "only_candidate");
  EXPECT_EQ(verdict_name(Verdict::kEqual), "equal");
  EXPECT_EQ(verdict_name(Verdict::kChanged), "changed");
}

}  // namespace
