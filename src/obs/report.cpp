#include "obs/report.hpp"

#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/schemas.hpp"
#include "util/require.hpp"

#ifndef CCMX_GIT_SHA
#define CCMX_GIT_SHA "unknown"
#endif
#ifndef CCMX_BUILD_TYPE
#define CCMX_BUILD_TYPE "unknown"
#endif

namespace ccmx::obs {

std::string build_git_sha() {
  if (const char* env = std::getenv("CCMX_GIT_SHA")) {
    if (env[0] != '\0') return env;
  }
  const char* baked = CCMX_GIT_SHA;
  return baked[0] == '\0' ? "unknown" : baked;
}

std::int64_t current_max_rss_bytes() noexcept {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::int64_t>(usage.ru_maxrss);  // already bytes
#else
  return static_cast<std::int64_t>(usage.ru_maxrss) * 1024;  // KiB -> bytes
#endif
#else
  return 0;
#endif
}

RusageExtras current_rusage_extras() noexcept {
  RusageExtras extras;
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return extras;
  extras.minor_faults = static_cast<std::int64_t>(usage.ru_minflt);
  extras.major_faults = static_cast<std::int64_t>(usage.ru_majflt);
  extras.voluntary_ctx_switches = static_cast<std::int64_t>(usage.ru_nvcsw);
  extras.involuntary_ctx_switches = static_cast<std::int64_t>(usage.ru_nivcsw);
#endif
  return extras;
}

std::string render_run_report(const RunReport& report) {
  // Settle the async trace pipeline first so the obs.trace.* counters
  // below agree with what actually reached the trace file.
  flush_trace_sink();
  const Snapshot snap = snapshot();
  std::ostringstream os;
  json::Writer w(os);
  w.begin_object();
  w.key("schema").value(kRunReportSchema);
  w.key("name").value(report.name);
  w.key("git_sha").value(build_git_sha());
  w.key("build_type").value(CCMX_BUILD_TYPE);
  w.key("unix_time").value(static_cast<std::int64_t>(std::time(nullptr)));
  // Same fallback rule as util::hardware_parallelism (not linked here to
  // keep ccmx_obs free of dependencies on the libraries it instruments).
  const unsigned hardware = std::thread::hardware_concurrency();
  w.key("hardware_parallelism")
      .value(static_cast<std::uint64_t>(hardware == 0 ? 1 : hardware));
  w.key("trace_enabled").value(enabled());
  // Honest-trace flag: true when events were dropped (a batch that raced
  // the sink's close) or the trace file never opened, so readers can
  // tell a short trace from a truncated one.
  w.key("trace_truncated").value(trace_truncated());
  w.key("wall_seconds").value(report.wall_seconds);
  w.key("cpu_seconds").value(report.cpu_seconds);
  w.key("max_rss_bytes")
      .value(report.max_rss_bytes > 0 ? report.max_rss_bytes
                                      : current_max_rss_bytes());
  const RusageExtras extras = current_rusage_extras();
  w.key("minor_faults").value(extras.minor_faults);
  w.key("major_faults").value(extras.major_faults);
  w.key("voluntary_ctx_switches").value(extras.voluntary_ctx_switches);
  w.key("involuntary_ctx_switches").value(extras.involuntary_ctx_switches);
  // Same at-render-time capture rule as max_rss_bytes: a report that
  // never measured its own hw region gets the process totals.  A
  // degraded machine writes {"available": false, "reason": ...}, so
  // readers can tell "degraded" from "zeros".
  const HwCounters hw = report.hw.available ? report.hw : hw_read();
  w.key("hw").begin_object();
  w.key("available").value(hw.available);
  if (hw.available) {
    w.key("instructions").value(hw.instructions);
    w.key("cycles").value(hw.cycles);
    w.key("ipc").value(hw.ipc());
    w.key("cache_references").value(hw.cache_references);
    w.key("cache_misses").value(hw.cache_misses);
    w.key("cache_miss_rate").value(hw.cache_miss_rate());
    w.key("branches").value(hw.branches);
    w.key("branch_misses").value(hw.branch_misses);
    w.key("task_clock_ns").value(hw.task_clock_ns);
  } else {
    w.key("reason").value(hw_unavailable_reason());
  }
  w.end_object();
  w.key("argv").begin_array();
  for (const std::string& arg : report.argv) w.value(arg);
  w.end_array();
  w.key("attributes").begin_object();
  for (const auto& [key, value] : snap.attributes) w.key(key).value(value);
  w.end_object();
  w.key("counters").begin_object();
  for (const auto& [name, value] : snap.counters) w.key(name).value(value);
  w.end_object();
  if (report.table_counters) {
    w.key("table_counters").begin_object();
    for (const auto& [name, value] : *report.table_counters) {
      w.key(name).value(value);
    }
    w.end_object();
  }
  w.key("histograms").begin_object();
  for (const auto& [name, h] : snap.histograms) {
    w.key(name).begin_object();
    w.key("count").value(h.count);
    w.key("min").value(h.min);
    w.key("max").value(h.max);
    w.key("mean").value(h.mean());
    w.key("p50").value(h.p50);
    w.key("p90").value(h.p90);
    w.key("p99").value(h.p99);
    w.end_object();
  }
  w.end_object();
  w.key("benchmarks").begin_array();
  for (const BenchmarkRun& run : report.benchmarks) {
    w.begin_object();
    w.key("name").value(run.name);
    w.key("iterations").value(run.iterations);
    w.key("real_time").value(run.real_time);
    w.key("cpu_time").value(run.cpu_time);
    w.key("time_unit").value(run.time_unit);
    if (run.error) {
      w.key("error").value(true);
      w.key("error_message").value(run.error_message);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
  return os.str();
}

std::string default_report_path(std::string_view name) {
  std::string dir = "bench/out";
  if (const char* env = std::getenv("CCMX_BENCH_OUT")) {
    if (env[0] != '\0') dir = env;
  }
  return dir + "/BENCH_" + std::string(name) + ".json";
}

std::string write_run_report(const RunReport& report, const std::string& path) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path());
  }
  // Atomic publish: render into a sibling temp file (same filesystem, so
  // rename cannot cross a device boundary), then rename over the target.
  // A killed process leaves only a stray .tmp, never a truncated report.
#if defined(__unix__) || defined(__APPLE__)
  const std::string suffix = ".tmp." + std::to_string(::getpid());
#else
  const std::string suffix = ".tmp";
#endif
  const std::filesystem::path tmp(path + suffix);
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    CCMX_REQUIRE(out.is_open(),
                 "cannot open run report temp path: " + tmp.string());
    out << render_run_report(report);
    out.flush();
    CCMX_REQUIRE(out.good(), "short write on run report: " + tmp.string());
  }
  std::error_code ec;
  std::filesystem::rename(tmp, p, ec);
  if (ec) {
    std::filesystem::remove(tmp);
    CCMX_REQUIRE(false, "cannot rename run report into place: " + path +
                            " (" + ec.message() + ')');
  }
  return path;
}

}  // namespace ccmx::obs
