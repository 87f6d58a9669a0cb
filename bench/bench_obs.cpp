// BENCH_obs — self-overhead of the observability layer's trace sink.
//
// The same pre-rendered event line emitted through (a) the trace sink
// (per-thread buffer; the emit that fills a 64-line batch writes it to
// the file) and (b) no sink at all (the one-atomic-load disabled gate).
// Events go to /dev/null so the numbers measure the sink, not the
// filesystem.  The sink's recorded history (the mutex-per-event path and
// the asynchronous ring it replaced) is in docs/OBSERVABILITY.md.
//
// The reproduction table storms the sink from 8 threads and prints the
// emitted/dropped ledger, so losslessness (0 dropped) is visible next to
// the timings.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace ccmx;

// A realistic send-event line (the hot emitter in comm::Channel renders
// payloads of this shape and size).
constexpr std::string_view kEventLine =
    "{\"ev\":\"send\",\"ch\":42,\"from\":0,\"bits\":128,\"round\":3,"
    "\"msg\":17,\"span\":9,\"tid\":1,\"t_us\":123456}";

bool open_null_sink() { return obs::open_trace_sink("/dev/null"); }

// Each benchmark reconfigures the sink in its thread-0 SETUP, never in
// teardown: Google Benchmark joins worker threads between runs, so an
// open (which closes the previous sink) can never race a lingering
// emitter — closing in a benchmark body would, and the post-close emits
// would surface as phantom obs.trace.dropped in the run report.

void BM_Emit(benchmark::State& state) {
  if (state.thread_index() == 0) {
    obs::set_enabled(true);
    if (!open_null_sink()) {
      state.SkipWithError("cannot open /dev/null trace sink");
    }
  }
  for (auto _ : state) {
    obs::emit_event(kEventLine);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Emit)->ThreadRange(1, 8)->UseRealTime();

void BM_EmitDisabled(benchmark::State& state) {
  if (state.thread_index() == 0) {
    obs::set_enabled(true);
    obs::close_trace_sink();  // emit_event stops at the mode gate
  }
  for (auto _ : state) {
    obs::emit_event(kEventLine);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EmitDisabled)->ThreadRange(1, 8)->UseRealTime();

// ------------------------------------------------------------- profiler

// Fixed arithmetic kernel standing in for the BigInt inner loop: the
// profiler ablation measures how much CPU the SIGPROF sampling steals
// from it at 0 / 97 / 997 Hz.  noinline so the samples land in one
// symbol instead of smearing into the benchmark loop.
__attribute__((noinline)) std::uint64_t spin_kernel(std::uint64_t iters) {
  volatile std::uint64_t acc = 1;
  for (std::uint64_t i = 0; i < iters; ++i) {
    acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return acc;
}

void BM_SpinUnderProfiler(benchmark::State& state) {
  const unsigned hz = static_cast<unsigned>(state.range(0));
  if (hz != 0) {
    obs::ProfilerOptions options;
    options.path = "/dev/null";  // measure sampling, not the filesystem
    options.hz = hz;
    if (!obs::profiler_start(options)) {
      state.SkipWithError(obs::profiler_unavailable_reason().c_str());
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(spin_kernel(100'000));
  }
  if (hz != 0) obs::profiler_stop();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpinUnderProfiler)->Arg(0)->Arg(97)->Arg(997);

// ---------------------------------------------------------------- tables

/// Storms the sink from `threads` emitters and returns the counter
/// ledger at quiescence.
struct StormResult {
  std::uint64_t emitted = 0;
  std::uint64_t dropped = 0;
  double wall_seconds = 0.0;
};

StormResult storm(std::size_t threads, std::uint64_t events_per_thread) {
  obs::reset_values();
  if (!open_null_sink()) return {};
  const util::WallTimer timer;
  {
    std::vector<std::jthread> emitters;
    emitters.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      emitters.emplace_back([events_per_thread] {
        for (std::uint64_t i = 0; i < events_per_thread; ++i) {
          obs::emit_event(kEventLine);
        }
        obs::flush_thread();
      });
    }
  }
  obs::close_trace_sink();
  obs::flush_thread();
  StormResult result;
  result.wall_seconds = timer.seconds();
  const obs::Snapshot snap = obs::snapshot();
  const auto counter = [&](std::string_view name) -> std::uint64_t {
    for (const auto& [key, value] : snap.counters) {
      if (key == name) return value;
    }
    return 0;
  };
  result.emitted = counter("obs.trace.emitted");
  result.dropped = counter("obs.trace.dropped");
  return result;
}

void print_tables() {
  using bench::print_header;
  using bench::print_table;
  obs::set_enabled(true);

  print_header(
      "OBS: trace-sink conservation ledger",
      "8 emitter threads storm the sink; each full batch is written by\n"
      "the emit that fills it and every residue before its thread exits,\n"
      "so every emitted event must be written: the row must show zero\n"
      "drops.  events/sec is timed from open to close.");

  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 20'000;
  util::TextTable table(
      {"threads", "emitted", "dropped", "lossless", "events/sec"});
  const StormResult r = storm(kThreads, kPerThread);
  const double rate =
      r.wall_seconds > 0.0 ? static_cast<double>(r.emitted) / r.wall_seconds
                           : 0.0;
  table.row(kThreads, r.emitted, r.dropped, r.dropped == 0 ? "yes" : "no",
            static_cast<std::uint64_t>(rate));
  print_table(table);
  obs::reset_values();

  print_header(
      "OBS: sampling-profiler overhead ablation",
      "the same fixed spin kernel timed with the profiler off and\n"
      "sampling at 97 / 997 Hz into /dev/null (process CPU, so the\n"
      "drainer's symbolization cost is charged too), in 7 alternating\n"
      "rounds of one pass per rate after a warm-up pass.  overhead is the\n"
      "median pass against the median off pass; 'off spread' is how far the\n"
      "off passes lie apart ((max - min) / median).  An overhead inside\n"
      "that spread is 'unresolved': this host cannot tell it from zero.\n"
      "The ledger columns prove every handler invocation is accounted.\n"
      "Acceptance bar: a resolved overhead at 97 Hz stays under 2%.");

  const auto spin_cpu = [] {
    const util::WallTimer timer;
    for (int rep = 0; rep < 1000; ++rep) {
      benchmark::DoNotOptimize(spin_kernel(100'000));
    }
    return timer.cpu_seconds();
  };
  struct Rate {
    unsigned hz;
    std::vector<double> cpu = {};  // one entry per pass
    std::uint64_t captured = 0;
    std::uint64_t dropped = 0;
    std::string unavailable = {};  // the profiler's reason, if it refused
  };
  std::vector<Rate> rates{{0}, {97}, {997}};
  constexpr std::size_t kRounds = 7;
  (void)spin_cpu();  // warm-up
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (Rate& sampling : rates) {
      if (!sampling.unavailable.empty()) continue;
      if (sampling.hz != 0) {
        obs::ProfilerOptions options;
        options.path = "/dev/null";
        options.hz = sampling.hz;
        if (!obs::profiler_start(options)) {
          sampling.unavailable = obs::profiler_unavailable_reason();
          continue;
        }
      }
      sampling.cpu.push_back(spin_cpu());
      if (sampling.hz != 0) {
        const obs::ProfilerLedger ledger = obs::profiler_stop();
        sampling.captured += ledger.captured;
        sampling.dropped += ledger.dropped;
      }
    }
  }
  // Every rate that ran has kRounds passes: the median is the middle one.
  const auto median = [](std::vector<double> v) {
    const auto middle = v.begin() + kRounds / 2;
    std::nth_element(v.begin(), middle, v.end());
    return *middle;
  };
  const std::vector<double>& off = rates[0].cpu;
  const double off_median = median(off);
  const auto [off_min, off_max] = std::minmax_element(off.begin(), off.end());
  const double spread = (*off_max - *off_min) / off_median * 100.0;
  util::TextTable prof_table({"hz", "passes", "median cpu s", "captured",
                              "dropped", "overhead", "off spread", "verdict"});
  prof_table.row("off", off.size(), util::fmt_double(off_median, 4), "-", "-",
                 "(baseline)", util::fmt_double(spread, 2) + "%", "-");
  for (const Rate& sampling : rates) {
    if (sampling.hz == 0) continue;
    if (!sampling.unavailable.empty()) {
      // Degradation is a row, not a zero: the reason prints verbatim.
      prof_table.row(sampling.hz, 0, "unavailable", "-", "-", "-", "-",
                     sampling.unavailable);
      continue;
    }
    const double cpu = median(sampling.cpu);
    const double overhead = (cpu / off_median - 1.0) * 100.0;
    prof_table.row(sampling.hz, sampling.cpu.size(), util::fmt_double(cpu, 4),
                   sampling.captured, sampling.dropped,
                   util::fmt_double(overhead, 2) + "%",
                   util::fmt_double(spread, 2) + "%",
                   std::abs(overhead) <= spread ? "unresolved" : "resolved");
  }
  print_table(prof_table);
}

}  // namespace

CCMX_BENCH_MAIN(print_tables)
