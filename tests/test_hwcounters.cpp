// hwcounters: availability probing, graceful degradation, the run
// report's hw block, and the telemetry sampler.
//
// These tests must pass both where perf_event_open works AND where it
// does not (locked-down CI, container without a PMU, CCMX_OBS=OFF):
// environment-dependent facts are asserted as coherence between the
// probe and its consumers, and the degraded paths are forced explicitly
// through the test hooks instead of relying on the machine.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "obs/analysis.hpp"
#include "obs/hwcounters.hpp"
#include "obs/json_reader.hpp"
#include "obs/report.hpp"
#include "obs/trace_reader.hpp"

namespace {

using namespace ccmx;
using ccmx::obs::json::Value;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("ccmx_hwtest_" + name + "_" +
           std::to_string(static_cast<std::uint64_t>(::getpid()))))
      .string();
}

TEST(HwCounters, DerivedRatesAreZeroWhenUnavailable) {
  obs::HwCounters c;
  c.instructions = 500;  // numbers present but available=false
  c.cycles = 100;
  c.cache_references = 10;
  c.cache_misses = 5;
  EXPECT_EQ(c.ipc(), 0.0);
  EXPECT_EQ(c.cache_miss_rate(), 0.0);
  c.available = true;
  EXPECT_DOUBLE_EQ(c.ipc(), 5.0);
  EXPECT_DOUBLE_EQ(c.cache_miss_rate(), 0.5);
}

#ifndef CCMX_OBS_DISABLED

/// Restores the real probe state after a test that forced/reprobed it.
class HwProbeGuard {
 public:
  ~HwProbeGuard() { obs::hw_reset_for_testing(); }
};

TEST(HwProbe, AvailabilityIsCoherentEitherWay) {
  // Whatever this machine is, the probe and its consumers must agree.
  const bool available = obs::hw_available();
  EXPECT_EQ(obs::hw_read().available, available);
  if (available) {
    EXPECT_TRUE(obs::hw_unavailable_reason().empty());
    // Counting is live: burning cycles moves the process totals.
    const obs::HwCounters before = obs::hw_read();
    volatile std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < 2'000'000; ++i) sink = sink + i;
    const obs::HwCounters after = obs::hw_read();
    EXPECT_GT(after.instructions, before.instructions);
    EXPECT_GT(after.cycles, before.cycles);
  } else {
    EXPECT_FALSE(obs::hw_unavailable_reason().empty());
  }
}

TEST(HwProbe, ForcedUnavailableSimulatesEperm) {
  const HwProbeGuard guard;
  // The EPERM path without needing a locked-down kernel: every consumer
  // must degrade to "unavailable", never serve zeros as measurements.
  obs::hw_force_unavailable_for_testing(
      "perf_event_open failed: EPERM (simulated)");
  EXPECT_FALSE(obs::hw_available());
  EXPECT_EQ(obs::hw_unavailable_reason(),
            "perf_event_open failed: EPERM (simulated)");
  EXPECT_FALSE(obs::hw_read().available);
  EXPECT_EQ(obs::hw_read().ipc(), 0.0);
}

// ---------------------------------------------------------- run report

const Value* find_key(const Value& obj, const std::string& key) {
  return obj.find(key);
}

TEST(HwReport, RendersAvailableHwBlockAndValidates) {
  obs::RunReport report;
  report.name = "hwtest";
  report.hw.available = true;
  report.hw.instructions = 1000;
  report.hw.cycles = 500;
  report.hw.cache_references = 100;
  report.hw.cache_misses = 10;
  report.hw.branches = 200;
  report.hw.branch_misses = 20;
  report.hw.task_clock_ns = 12345;
  const Value doc = obs::json::parse(obs::render_run_report(report));
  EXPECT_TRUE(obs::validate_run_report(doc).empty());
  const Value* hw = find_key(doc, "hw");
  ASSERT_NE(hw, nullptr);
  ASSERT_TRUE(hw->is_object());
  EXPECT_TRUE(hw->find("available")->boolean);
  EXPECT_DOUBLE_EQ(hw->find("instructions")->number, 1000.0);
  EXPECT_DOUBLE_EQ(hw->find("ipc")->number, 2.0);
  EXPECT_DOUBLE_EQ(hw->find("cache_miss_rate")->number, 0.1);
  EXPECT_EQ(hw->find("reason"), nullptr);
}

TEST(HwReport, DegradedReportRendersReasonNotZeros) {
  const HwProbeGuard guard;
  obs::hw_force_unavailable_for_testing("perf_event_open failed: EPERM "
                                        "(simulated)");
  obs::RunReport report;
  report.name = "hwtest_degraded";
  // report.hw left unavailable: the renderer captures hw_read() itself
  // (the max_rss_bytes rule) and finds the forced degradation.
  const Value doc = obs::json::parse(obs::render_run_report(report));
  EXPECT_TRUE(obs::validate_run_report(doc).empty());
  const Value* hw = find_key(doc, "hw");
  ASSERT_NE(hw, nullptr);
  EXPECT_FALSE(hw->find("available")->boolean);
  EXPECT_EQ(hw->find("instructions"), nullptr);  // no zero counters
  ASSERT_NE(hw->find("reason"), nullptr);
  EXPECT_EQ(hw->find("reason")->string,
            "perf_event_open failed: EPERM (simulated)");
}

TEST(HwReport, RusageExtrasAreRenderedAndNonNegative) {
  const obs::RusageExtras extras = obs::current_rusage_extras();
  EXPECT_GE(extras.minor_faults, 0);
  EXPECT_GE(extras.voluntary_ctx_switches, 0);
  obs::RunReport report;
  report.name = "hwtest_rusage";
  const Value doc = obs::json::parse(obs::render_run_report(report));
  EXPECT_TRUE(obs::validate_run_report(doc).empty());
  for (const char* key : {"minor_faults", "major_faults",
                          "voluntary_ctx_switches",
                          "involuntary_ctx_switches"}) {
    const Value* v = find_key(doc, key);
    ASSERT_NE(v, nullptr) << key;
    EXPECT_TRUE(v->is_number()) << key;
    EXPECT_GE(v->number, 0.0) << key;
  }
}

// ------------------------------------------------------------- sampler

TEST(TelemetrySampler, StopBeforeFirstTickStillWritesOneRow) {
  const std::string path = temp_path("stop_early");
  obs::TelemetrySampler sampler;
  obs::SamplerOptions options;
  options.path = path;
  options.interval_ms = 60'000;  // never ticks during the test
  ASSERT_TRUE(sampler.start(options));
  EXPECT_TRUE(sampler.running());
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  EXPECT_EQ(sampler.rows_written(), 1u);  // the final row at stop()
  const obs::TimeseriesResult series = obs::load_timeseries(path);
  EXPECT_TRUE(series.problems.empty());
  ASSERT_EQ(series.rows.size(), 1u);
  EXPECT_EQ(series.rows[0].seq, 0u);
  std::filesystem::remove(path);
}

TEST(TelemetrySampler, WritesRowsAndRoundTripsThroughTheReader) {
  const std::string path = temp_path("roundtrip");
  obs::TelemetrySampler sampler;
  obs::SamplerOptions options;
  options.path = path;
  options.interval_ms = 5;
  ASSERT_TRUE(sampler.start(options));
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  sampler.stop();
  const std::uint64_t written = sampler.rows_written();
  EXPECT_GE(written, 2u);  // several ticks plus the final row

  const obs::TimeseriesResult series = obs::load_timeseries(path);
  EXPECT_TRUE(series.problems.empty()) << series.problems.front();
  EXPECT_EQ(series.skipped, 0u);
  ASSERT_EQ(series.rows.size(), written);
  for (std::size_t i = 0; i < series.rows.size(); ++i) {
    const obs::TimeseriesRow& row = series.rows[i];
    EXPECT_EQ(row.seq, i);
    EXPECT_GE(row.dt_us, 0);
    EXPECT_GT(row.rss_bytes, 0);  // a live process has resident pages
  }
  // Hardware counters live only in the run report, never in a row.
  std::ifstream in(path, std::ios::binary);
  for (std::string line; std::getline(in, line);) {
    EXPECT_EQ(line.find("\"hw\""), std::string::npos) << line;
  }
  EXPECT_GE(series.span_seconds(), 0.0);
  std::filesystem::remove(path);
}

TEST(TelemetrySampler, LifecycleIsIdempotentAndRestartable) {
  const std::string path1 = temp_path("lifecycle1");
  const std::string path2 = temp_path("lifecycle2");
  obs::TelemetrySampler sampler;
  sampler.stop();  // stop before any start: no-op
  EXPECT_FALSE(sampler.running());
  EXPECT_EQ(sampler.rows_written(), 0u);

  obs::SamplerOptions options;
  options.path = path1;
  options.interval_ms = 60'000;
  ASSERT_TRUE(sampler.start(options));
  EXPECT_FALSE(sampler.start(options));  // second start refused
  EXPECT_TRUE(sampler.running());
  sampler.stop();
  sampler.stop();  // double stop: no-op, no second final row
  EXPECT_EQ(sampler.rows_written(), 1u);

  options.path = path2;  // restart after stop opens a fresh series
  ASSERT_TRUE(sampler.start(options));
  sampler.stop();
  EXPECT_EQ(sampler.rows_written(), 1u);
  EXPECT_EQ(obs::load_timeseries(path2).rows.size(), 1u);
  std::filesystem::remove(path1);
  std::filesystem::remove(path2);
}

TEST(TelemetrySampler, RefusesUnwritablePathAndUnsetEnv) {
  obs::TelemetrySampler sampler;
  obs::SamplerOptions options;
  options.path = "/nonexistent_ccmx_dir/ts.jsonl";
  EXPECT_FALSE(sampler.start(options));
  EXPECT_FALSE(sampler.running());

  ::unsetenv("CCMX_SAMPLE_FILE");
  EXPECT_FALSE(sampler.start_from_env());
  EXPECT_FALSE(sampler.running());
}

TEST(TelemetrySampler, StartFromEnvHonorsSampleFile) {
  const std::string path = temp_path("from_env");
  ::setenv("CCMX_SAMPLE_FILE", path.c_str(), /*overwrite=*/1);
  ::setenv("CCMX_SAMPLE_MS", "60000", /*overwrite=*/1);
  {
    obs::TelemetrySampler sampler;
    EXPECT_TRUE(sampler.start_from_env());
    EXPECT_TRUE(sampler.running());
    // Destructor stops: the final row must still land.
  }
  ::unsetenv("CCMX_SAMPLE_FILE");
  ::unsetenv("CCMX_SAMPLE_MS");
  EXPECT_EQ(obs::load_timeseries(path).rows.size(), 1u);
  std::filesystem::remove(path);
}

// ------------------------------------------------- timeseries reading

TEST(TimeseriesReader, MissingFileIsAProblemNotACrash) {
  const obs::TimeseriesResult series =
      obs::load_timeseries("/nonexistent_ccmx_dir/ts.jsonl");
  EXPECT_TRUE(series.rows.empty());
  ASSERT_FALSE(series.problems.empty());
}

TEST(TimeseriesReader, SkipsForeignAndTornLines) {
  const std::string path = temp_path("torn");
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << R"({"schema":"ccmx.timeseries/2","seq":0,"t_us":10,"dt_us":10,)"
        << R"("rss_bytes":4096,"utime_s":0,"stime_s":0,"minor_faults":1,)"
        << R"("major_faults":0,"counters":{}})" << '\n';
    out << R"({"schema":"ccmx.other/1","x":1})" << '\n';  // foreign schema
    out << R"({"schema":"ccmx.timeseries/2","seq":1,"t_us)";  // torn tail
  }
  const obs::TimeseriesResult series = obs::load_timeseries(path);
  ASSERT_EQ(series.rows.size(), 1u);
  EXPECT_EQ(series.skipped, 2u);
  EXPECT_EQ(series.rows[0].rss_bytes, 4096);
  std::filesystem::remove(path);
}

#else  // CCMX_OBS_DISABLED

TEST(HwDisabled, EverythingIsAnExplicitNoOp) {
  EXPECT_FALSE(obs::hw_available());
  EXPECT_EQ(obs::hw_unavailable_reason(),
            "observability compiled out (CCMX_OBS=OFF)");
  EXPECT_FALSE(obs::hw_read().available);
  obs::TelemetrySampler sampler;
  obs::SamplerOptions options;
  options.path = temp_path("disabled");
  EXPECT_FALSE(sampler.start(options));
  EXPECT_FALSE(sampler.running());
  EXPECT_EQ(sampler.rows_written(), 0u);
  sampler.stop();  // still safe
}

#endif  // CCMX_OBS_DISABLED

}  // namespace
