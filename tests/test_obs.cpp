// obs: counters under parallelism, histograms, spans, JSON, run reports.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "comm/channel.hpp"
#include "obs/analysis.hpp"
#include "obs/json.hpp"
#include "obs/json_reader.hpp"
#include "obs/obs.hpp"
#include "obs/schemas.hpp"
#include "obs/progress.hpp"
#include "obs/report.hpp"
#include "util/parallel.hpp"
#include "util/require.hpp"

namespace {

using namespace ccmx;
using ccmx::obs::json::Value;

/// Turns tracing on for one test and restores the prior state after.
class TracingOn {
 public:
  TracingOn() : was_(obs::enabled()) {
    obs::set_enabled(true);
    obs::reset_values();
  }
  ~TracingOn() {
    obs::reset_values();
    obs::set_enabled(was_);
  }

 private:
  bool was_;
};

#ifndef CCMX_OBS_DISABLED

TEST(ObsCounter, SumsExactlyUnderParallelFor) {
  const TracingOn guard;
  const obs::Counter counter("test.parallel_sum");
  constexpr std::size_t kItems = 100000;
  util::parallel_for(0, kItems, [&](std::size_t i) {
    counter.add(i % 3 == 0 ? 2 : 1);  // non-uniform deltas
  });
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < kItems; ++i) expected += i % 3 == 0 ? 2 : 1;
  // Worker sinks folded when the jthreads joined inside parallel_for.
  EXPECT_EQ(counter.value(), expected);
}

TEST(ObsCounter, RepeatedParallelRunsKeepAccumulating) {
  const TracingOn guard;
  const obs::Counter counter("test.repeat_sum");
  for (int run = 0; run < 4; ++run) {
    util::parallel_for(0, 1000, [&](std::size_t) { counter.add(); });
  }
  EXPECT_EQ(counter.value(), 4000u);
}

TEST(ObsCounter, ConcurrentReadsDuringAddsAreRaceFree) {
  // Regression guard for the ThreadSink slots: value() folds worker slots
  // while those workers are still mid-add, so slot traffic must go through
  // atomics (TSan flags the old plain-uint64 slots here).  Mid-flight
  // reads may see any partial sum; only the quiescent total is exact.
  const TracingOn guard;
  const obs::Counter counter("test.concurrent_reads");
  constexpr std::size_t kItems = 50000;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t now = counter.value();
      EXPECT_GE(now, last);  // monotone: adds only, folded relaxed
      EXPECT_LE(now, 2 * kItems);
      last = now;
    }
  });
  util::parallel_for(0, kItems, [&](std::size_t) { counter.add(2); });
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(counter.value(), 2 * kItems);
}

TEST(ObsCounter, DisabledAddsAreDropped) {
  const TracingOn guard;
  const obs::Counter counter("test.disabled");
  obs::set_enabled(false);
  counter.add(100);
  obs::set_enabled(true);
  counter.add(1);
  EXPECT_EQ(counter.value(), 1u);
}

TEST(ObsCounter, AppearsInSnapshotByName) {
  const TracingOn guard;
  const obs::Counter counter("test.snapshot_me");
  counter.add(7);
  const obs::Snapshot snap = obs::snapshot();
  bool found = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == "test.snapshot_me") {
      EXPECT_EQ(value, 7u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ObsHistogram, SummarizesMomentsAndQuantiles) {
  const TracingOn guard;
  const obs::Histogram hist("test.hist");
  for (int i = 1; i <= 100; ++i) hist.record(static_cast<double>(i));
  const obs::Snapshot snap = obs::snapshot();
  const obs::HistSummary* summary = nullptr;
  for (const auto& [name, h] : snap.histograms) {
    if (name == "test.hist") summary = &h;
  }
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->count, 100u);
  EXPECT_DOUBLE_EQ(summary->min, 1.0);
  EXPECT_DOUBLE_EQ(summary->max, 100.0);
  EXPECT_DOUBLE_EQ(summary->mean(), 50.5);
  // Quantiles interpolate within the power-of-two bucket: accuracy is
  // bounded by the bucket width, not a factor of 2.  Exact p50 of
  // 1..100 is 50; the target rank (50) sits 19/32 into bucket [32,64),
  // giving 32 + 19/32*32 = 51.
  EXPECT_NEAR(summary->p50, 51.0, 1e-9);
  EXPECT_GE(summary->p99, summary->p50);
  EXPECT_LE(summary->p99, 100.0);  // clamped to the observed max
}

TEST(ObsHistogram, QuantilesInterpolateWithinBucket) {
  const TracingOn guard;
  // All 32 samples land in one bucket [32, 64); before interpolation
  // every quantile collapsed to the same bucket boundary.  With the
  // uniform-spread assumption the estimates track the exact
  // nearest-rank quantiles to within one sample spacing.
  const obs::Histogram hist("test.hist_interp");
  for (int v = 32; v < 64; ++v) hist.record(static_cast<double>(v));
  const obs::Snapshot snap = obs::snapshot();
  const obs::HistSummary* summary = nullptr;
  for (const auto& [name, h] : snap.histograms) {
    if (name == "test.hist_interp") summary = &h;
  }
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->count, 32u);
  EXPECT_NEAR(summary->p50, 48.0, 1e-9);  // exact nearest-rank: 47
  EXPECT_NEAR(summary->p90, 61.0, 1e-9);  // exact nearest-rank: 60
  EXPECT_NEAR(summary->p99, 63.0, 1e-9);  // clamped to max
  EXPECT_LT(summary->p50, summary->p90);
  EXPECT_LT(summary->p90, summary->p99 + 1e-9);
}

TEST(ObsSpan, RecordsIntoSpanHistogram) {
  const TracingOn guard;
  {
    const obs::ScopedSpan span("test_region");
    EXPECT_GE(span.seconds(), 0.0);
  }
  const obs::Snapshot snap = obs::snapshot();
  bool found = false;
  for (const auto& [name, h] : snap.histograms) {
    if (name == "span.test_region") {
      EXPECT_EQ(h.count, 1u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ObsAttributes, LastWriteWins) {
  const TracingOn guard;
  obs::set_attribute("seed", "1");
  obs::set_attribute("seed", "2");
  const obs::Snapshot snap = obs::snapshot();
  ASSERT_EQ(snap.attributes.size(), 1u);
  EXPECT_EQ(snap.attributes[0].first, "seed");
  EXPECT_EQ(snap.attributes[0].second, "2");
}

TEST(ObsChannel, CountsTrafficWhenEnabled) {
  const TracingOn guard;
  const obs::Counter messages("comm.messages");
  const obs::Counter rounds("comm.rounds");
  const std::uint64_t messages_before = messages.value();
  comm::Channel ch;
  ch.send_bit(comm::Agent::kZero, true);
  ch.send_bit(comm::Agent::kZero, false);
  ch.send_bit(comm::Agent::kOne, true);
  EXPECT_EQ(messages.value() - messages_before, 3u);
  EXPECT_EQ(rounds.value(), 2u);
}

#endif  // CCMX_OBS_DISABLED

TEST(ObsProgress, ConcurrentBatchedTicksCountExactly) {
  // Sweep workers tick one shared meter with per-chunk batch sizes; the
  // relaxed-atomic counter must still total exactly.
  const TracingOn guard;
  obs::ProgressMeter meter("test.batched", 256 * 1000);
  if (!meter.active()) {
    GTEST_SKIP() << "observability compiled out (CCMX_OBS=OFF)";
  }
  util::parallel_for(0, 256, [&](std::size_t i) {
    meter.tick(i % 2 == 0 ? 999 : 1001);  // uneven batches
  });
  EXPECT_EQ(meter.done(), 256u * 1000u);
}

TEST(ObsProgress, InactiveMeterStillCountsNothing) {
  // Without CCMX_PROGRESS/CCMX_TRACE the meter must be a no-op.
  obs::set_enabled(false);
  obs::ProgressMeter meter("test", 100);
  if (!meter.active()) {
    meter.tick(10);
    EXPECT_EQ(meter.done(), 0u);
  }
}

TEST(Json, WriterRendersNestedDocument) {
  std::ostringstream os;
  obs::json::Writer w(os);
  w.begin_object();
  w.key("a").value(std::int64_t{1});
  w.key("b").begin_array().value("x").value(true).null().end_array();
  w.key("c").begin_object().key("d").value(2.5).end_object();
  w.end_object();
  EXPECT_EQ(os.str(), R"({"a":1,"b":["x",true,null],"c":{"d":2.5}})");
}

TEST(Json, EscapeRoundTripsThroughParser) {
  const std::string nasty = "quote\" backslash\\ newline\n tab\t ctrl\x01 ok";
  std::ostringstream os;
  obs::json::Writer w(os);
  w.begin_object();
  w.key("s").value(nasty);
  w.end_object();
  const Value doc = obs::json::parse(os.str());
  ASSERT_TRUE(doc.is_object());
  const Value* s = doc.find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->string, nasty);
}

TEST(Json, ParsesScalarsArraysObjects) {
  const Value doc = obs::json::parse(
      R"({"n": -1.5e2, "t": true, "f": false, "z": null,
          "arr": [1, 2, 3], "obj": {"k": "v"}, "u": "é€"})");
  EXPECT_DOUBLE_EQ(doc.find("n")->number, -150.0);
  EXPECT_TRUE(doc.find("t")->boolean);
  EXPECT_FALSE(doc.find("f")->boolean);
  EXPECT_TRUE(doc.find("z")->is_null());
  ASSERT_EQ(doc.find("arr")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(doc.find("arr")->array[2].number, 3.0);
  EXPECT_EQ(doc.find("obj")->find("k")->string, "v");
  EXPECT_EQ(doc.find("u")->string, "\xC3\xA9\xE2\x82\xAC");  // é€ in UTF-8
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW((void)obs::json::parse("{"), util::contract_error);
  EXPECT_THROW((void)obs::json::parse("[1,]"), util::contract_error);
  EXPECT_THROW((void)obs::json::parse("{} trailing"), util::contract_error);
  EXPECT_THROW((void)obs::json::parse("\"unterminated"), util::contract_error);
  EXPECT_THROW((void)obs::json::parse("nul"), util::contract_error);
}

TEST(Json, CapsNestingDepth) {
  // The parser recurses once per level; 10^5 levels would overflow the
  // stack instead of throwing.
  const std::string hostile =
      std::string(100000, '[') + std::string(100000, ']');
  EXPECT_THROW((void)obs::json::parse(hostile), util::contract_error);
  const std::size_t cap = obs::json::kMaxDepth;
  const std::string deepest = std::string(cap, '[') + std::string(cap, ']');
  EXPECT_NO_THROW((void)obs::json::parse(deepest));
  EXPECT_THROW((void)obs::json::parse("{\"k\":" + deepest + "}"),
               util::contract_error);
}

TEST(Json, IntegerReadsRejectNumbersOutsideTheTargetType) {
  const Value doc = obs::json::parse(
      R"({"big": 1e999, "neg_big": -1e999, "i63": 9223372036854775808,
          "min63": -9223372036854775808, "u64": 18446744073709551616,
          "u32": 4294967296, "u32_max": 4294967295, "frac": -2.7,
          "s": "7"})");
  using obs::json::integer;
  using obs::json::integer_or;
  EXPECT_EQ(integer_or<std::int64_t>(doc, "big", -1), -1);
  EXPECT_EQ(integer_or<std::int64_t>(doc, "neg_big", -1), -1);
  EXPECT_EQ(integer_or<std::int64_t>(doc, "i63", -1), -1);
  EXPECT_EQ(integer_or<std::int64_t>(doc, "min63", 0),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(integer_or<std::uint64_t>(doc, "i63", 0), std::uint64_t{1} << 63);
  EXPECT_EQ(integer_or<std::uint64_t>(doc, "u64", 7), 7u);
  EXPECT_EQ(integer_or<std::uint64_t>(doc, "frac", 7), 7u);
  EXPECT_EQ(integer_or<std::int64_t>(doc, "frac", 0), -2);  // truncates
  EXPECT_EQ(integer_or<std::uint32_t>(doc, "u32", 7), 7u);
  EXPECT_EQ(integer_or<std::uint32_t>(doc, "u32_max", 7), 4294967295u);
  EXPECT_EQ(integer_or<std::uint32_t>(doc, "s", 7), 7u);        // a string
  EXPECT_EQ(integer_or<std::uint32_t>(doc, "missing", 7), 7u);
  EXPECT_FALSE(integer<std::uint64_t>(nullptr).has_value());
}

TEST(RunReport, RendersValidSchema) {
  obs::RunReport report;
  report.name = "test_report";
  report.argv = {"bench_test", "--flag"};
  report.wall_seconds = 1.25;
  report.cpu_seconds = 2.5;
  obs::BenchmarkRun run;
  run.name = "BM_Something/3";
  run.iterations = 1000;
  run.real_time = 42.0;
  run.cpu_time = 41.0;
  report.benchmarks.push_back(run);
  const std::string text = obs::render_run_report(report);
  const Value doc = obs::json::parse(text);
  const std::vector<std::string> problems = obs::validate_run_report(doc);
  EXPECT_TRUE(problems.empty())
      << "schema problems: "
      << (problems.empty() ? "" : problems.front());
  EXPECT_EQ(doc.find("schema")->string, obs::kRunReportSchema);
  EXPECT_EQ(doc.find("name")->string, "test_report");
  EXPECT_DOUBLE_EQ(doc.find("wall_seconds")->number, 1.25);
  EXPECT_GE(doc.find("hardware_parallelism")->number, 1.0);
  ASSERT_EQ(doc.find("benchmarks")->array.size(), 1u);
  EXPECT_EQ(doc.find("benchmarks")->array[0].find("name")->string,
            "BM_Something/3");
  EXPECT_FALSE(doc.find("git_sha")->string.empty());
  // Peak RSS is captured at render time when the report leaves it unset.
  ASSERT_NE(doc.find("max_rss_bytes"), nullptr);
  EXPECT_GE(doc.find("max_rss_bytes")->number, 0.0);
}

TEST(RunReport, ExplicitMaxRssIsPreserved) {
  obs::RunReport report;
  report.name = "rss_test";
  report.max_rss_bytes = 123456789;
  const Value doc = obs::json::parse(obs::render_run_report(report));
  EXPECT_DOUBLE_EQ(doc.find("max_rss_bytes")->number, 123456789.0);
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_GT(obs::current_max_rss_bytes(), 0);
#endif
}

TEST(RunReport, ErroredBenchmarksRenderAndValidate) {
  obs::RunReport report;
  report.name = "errored";
  obs::BenchmarkRun ok;
  ok.name = "BM_Ok/1";
  ok.iterations = 10;
  ok.real_time = 1.0;
  ok.cpu_time = 1.0;
  report.benchmarks.push_back(ok);
  obs::BenchmarkRun bad;
  bad.name = "BM_Throws/2";
  bad.error = true;
  bad.error_message = "contract violated: n > 0";
  report.benchmarks.push_back(bad);

  const Value doc = obs::json::parse(obs::render_run_report(report));
  EXPECT_TRUE(obs::validate_run_report(doc).empty());
  ASSERT_EQ(doc.find("benchmarks")->array.size(), 2u);
  const Value& row = doc.find("benchmarks")->array[1];
  ASSERT_NE(row.find("error"), nullptr);
  EXPECT_TRUE(row.find("error")->boolean);
  EXPECT_EQ(row.find("error_message")->string, "contract violated: n > 0");
  // The healthy row carries no error members at all.
  EXPECT_EQ(doc.find("benchmarks")->array[0].find("error"), nullptr);

  // error:true without a message is a schema violation.
  const Value corrupt = obs::json::parse(R"({"benchmarks":[
      {"name":"x","iterations":1,"real_time":1,"cpu_time":1,
       "time_unit":"ns","error":true}]})");
  bool found = false;
  for (const std::string& p : obs::validate_run_report(corrupt)) {
    if (p.find("error_message") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(RunReport, TableCountersRenderOnlyWhenRecorded) {
  obs::RunReport report;
  report.name = "table_phase";
  // No table phase (ccmx_cli): no member at all.
  Value doc = obs::json::parse(obs::render_run_report(report));
  EXPECT_EQ(doc.find("table_counters"), nullptr);

  report.table_counters.emplace();
  report.table_counters->emplace_back("comm.bits.round1", 128);
  report.table_counters->emplace_back("linalg.exact.primes", 0);
  doc = obs::json::parse(obs::render_run_report(report));
  EXPECT_TRUE(obs::validate_run_report(doc).empty());
  const Value* block = doc.find("table_counters");
  ASSERT_NE(block, nullptr);
  ASSERT_EQ(block->object.size(), 2u);
  EXPECT_EQ(block->find("comm.bits.round1")->number, 128.0);
  EXPECT_EQ(block->find("linalg.exact.primes")->number, 0.0);

  // The validator types the block and its values.
  for (auto& [key, value] : doc.object) {
    if (key == "table_counters") value.object.front().second = Value{};
  }
  EXPECT_FALSE(obs::validate_run_report(doc).empty());
  for (auto& [key, value] : doc.object) {
    if (key == "table_counters") value = Value{};
  }
  EXPECT_FALSE(obs::validate_run_report(doc).empty());
}

TEST(RunReport, ValidatorCatchesCorruption) {
  obs::RunReport report;
  report.name = "bad";
  Value doc = obs::json::parse(obs::render_run_report(report));
  // Remove a required member.
  std::erase_if(doc.object,
                [](const auto& member) { return member.first == "name"; });
  EXPECT_FALSE(obs::validate_run_report(doc).empty());

  // Wrong member type.
  Value doc2 = obs::json::parse(obs::render_run_report(report));
  for (auto& [key, value] : doc2.object) {
    if (key == "counters") value = Value{};  // null, not object
  }
  EXPECT_FALSE(obs::validate_run_report(doc2).empty());

  // Not an object at all.
  EXPECT_FALSE(obs::validate_run_report(obs::json::parse("[]")).empty());
}

TEST(RunReport, WritesFileAndCreatesDirectories) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "ccmx_obs_test" / "nested";
  const fs::path path = dir / "BENCH_test.json";
  fs::remove_all(dir.parent_path());
  obs::RunReport report;
  report.name = "write_test";
  const std::string written = obs::write_run_report(report, path.string());
  EXPECT_EQ(written, path.string());
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(obs::validate_run_report(obs::json::parse(buffer.str())).empty());
  // The write is publish-by-rename: no temp sibling may be left behind.
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(entry.path().filename().string(), "BENCH_test.json");
  }
  EXPECT_EQ(entries, 1u);
  fs::remove_all(dir.parent_path());
}

TEST(RunReport, DefaultPathUsesBenchOut) {
  // Do not disturb the environment; just check the default shape.
  if (std::getenv("CCMX_BENCH_OUT") == nullptr) {
    EXPECT_EQ(obs::default_report_path("exact_cc"),
              "bench/out/BENCH_exact_cc.json");
  }
  EXPECT_FALSE(obs::build_git_sha().empty());
}

}  // namespace
