// Sampling CPU profiler: degradation reasons, start/stop idempotence,
// the ring-overflow conservation ledger, symbol attribution of a known
// hot function, the file offsets of frames dladdr cannot name, span
// attribution, and coexistence with the trace writer and a worker
// thread.  Under CCMX_OBS=OFF only the stub contract is testable — and
// tested.
#include "obs/profiler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "obs/profile_reader.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#endif
#if defined(__linux__)
#include <link.h>
#endif

namespace {

using namespace ccmx;

/// Fresh per-test output path (tests share one process; never reuse).
std::string temp_profile_path(std::string_view test) {
  const std::string name =
      "ccmx_profiler_" + std::string(test) + "_" + std::to_string(getpid());
  const std::string path =
      (std::filesystem::temp_directory_path() / (name + ".jsonl")).string();
  std::filesystem::remove(path);
  return path;
}

/// Burns roughly `seconds` of CPU time in ccmx_test_spin_hot.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

// External linkage and noinline on purpose: the attribution test asks
// dladdr to find this exact symbol in the -rdynamic'd test binary, and
// inlining would smear its samples into the caller.
extern "C" __attribute__((noinline)) std::uint64_t ccmx_test_spin_hot(
    double seconds) {
  volatile std::uint64_t acc = 1;
  const double until = thread_cpu_seconds() + seconds;
  do {
    for (int i = 0; i < 4096; ++i) {
      acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
    }
  } while (thread_cpu_seconds() < until);
  return acc;
}

#ifdef CCMX_OBS_DISABLED

TEST(Profiler, CompiledOutStubsReportReasonNotZeros) {
  obs::ProfilerOptions options;
  options.path = "unused.jsonl";
  EXPECT_FALSE(obs::profiler_start(options));
  EXPECT_FALSE(obs::profiler_start_from_env());
  EXPECT_FALSE(obs::profiler_running());
  EXPECT_EQ(obs::profiler_unavailable_reason(),
            "observability compiled out (CCMX_OBS=OFF)");
  const obs::ProfilerLedger ledger = obs::profiler_stop();
  EXPECT_EQ(ledger.captured, 0u);
  obs::profiler_register_thread();  // must be a harmless no-op
}

#else  // the real thing

namespace {

TEST(Profiler, StopWithoutStartIsANoop) {
  EXPECT_FALSE(obs::profiler_running());
  const obs::ProfilerLedger ledger = obs::profiler_stop();
  EXPECT_EQ(ledger.captured, 0u);
  EXPECT_EQ(ledger.written, 0u);
  EXPECT_FALSE(obs::profiler_running());
}

TEST(Profiler, RefusesAnEmptyPathWithAReason) {
  obs::ProfilerOptions options;  // path left empty
  EXPECT_FALSE(obs::profiler_start(options));
  EXPECT_FALSE(obs::profiler_running());
  EXPECT_FALSE(obs::profiler_unavailable_reason().empty());
}

TEST(Profiler, RefusesAnUnopenablePathWithAReason) {
  obs::ProfilerOptions options;
  options.path = "/nonexistent-dir/profile.jsonl";
  EXPECT_FALSE(obs::profiler_start(options));
  EXPECT_NE(obs::profiler_unavailable_reason().find("open"),
            std::string::npos)
      << obs::profiler_unavailable_reason();
}

TEST(Profiler, StartFromEnvWithoutConfigDoesNotStart) {
  unsetenv("CCMX_PROF_HZ");
  unsetenv("CCMX_PROF_FILE");
  EXPECT_FALSE(obs::profiler_start_from_env());
  EXPECT_FALSE(obs::profiler_running());
}

#if defined(__unix__)
TEST(Profiler, RefusesWhenSigprofIsAlreadyOwned) {
  // Someone else's SIGPROF handler (gperftools, say) must never be
  // silently replaced; the profiler degrades with a reason instead.
  struct sigaction mine {};
  mine.sa_handler = [](int) {};
  struct sigaction old {};
  ASSERT_EQ(sigaction(SIGPROF, &mine, &old), 0);

  obs::ProfilerOptions options;
  options.path = temp_profile_path("sigprof_owned");
  EXPECT_FALSE(obs::profiler_start(options));
  EXPECT_NE(obs::profiler_unavailable_reason().find("SIGPROF"),
            std::string::npos)
      << obs::profiler_unavailable_reason();

  ASSERT_EQ(sigaction(SIGPROF, &old, nullptr), 0);
  std::filesystem::remove(options.path);
}
#endif

TEST(Profiler, DoubleStartIsRefusedAndStopIsIdempotent) {
  obs::ProfilerOptions options;
  options.path = temp_profile_path("idempotent");
  options.hz = 97;
  ASSERT_TRUE(obs::profiler_start(options))
      << obs::profiler_unavailable_reason();
  EXPECT_TRUE(obs::profiler_running());
  EXPECT_TRUE(obs::profiler_unavailable_reason().empty());

  obs::ProfilerOptions second = options;
  second.path = temp_profile_path("idempotent_second");
  EXPECT_FALSE(obs::profiler_start(second));
  EXPECT_NE(obs::profiler_unavailable_reason().find("already"),
            std::string::npos)
      << obs::profiler_unavailable_reason();
  EXPECT_TRUE(obs::profiler_running());  // the first run is unharmed

  ccmx_test_spin_hot(0.05);
  const obs::ProfilerLedger first = obs::profiler_stop();
  EXPECT_FALSE(obs::profiler_running());
  const obs::ProfilerLedger again = obs::profiler_stop();
  EXPECT_EQ(first.captured, again.captured);
  EXPECT_EQ(first.written, again.written);
  EXPECT_EQ(first.dropped, again.dropped);
  std::filesystem::remove(options.path);
  std::filesystem::remove(second.path);
}

TEST(Profiler, AttributesSamplesToTheHotFunctionAndBalances) {
  obs::ProfilerOptions options;
  options.path = temp_profile_path("attribution");
  options.hz = 997;  // kernel tick granularity caps the effective rate
  options.drain_interval_ms = 20;
  ASSERT_TRUE(obs::profiler_start(options))
      << obs::profiler_unavailable_reason();
  obs::set_enabled(true);  // spans only get ids when obs is on
  {
    const obs::ScopedSpan span("test.spin");
    ccmx_test_spin_hot(0.8);
  }
  obs::set_enabled(false);
  const obs::ProfilerLedger ledger = obs::profiler_stop();

  // Conservation: every handler invocation is written or dropped.
  EXPECT_EQ(ledger.captured, ledger.written + ledger.dropped);
  EXPECT_GT(ledger.captured, 10u);
  EXPECT_GE(ledger.threads, 1u);

  const obs::ProfileData prof = obs::load_profile(options.path);
  EXPECT_TRUE(prof.problems.empty()) << prof.problems.front();
  ASSERT_TRUE(prof.has_ledger);
  EXPECT_TRUE(prof.ledger_balances());
  EXPECT_EQ(prof.ledger.written, prof.samples.size());

  // The ledger records the CPU time the samples cover, and the printed
  // rate is captured samples per CPU second, whatever the kernel's tick
  // let the timers deliver of the 997 Hz asked for.
  EXPECT_GT(ledger.cpu_ns, 0u);
  EXPECT_EQ(prof.ledger.cpu_ns, ledger.cpu_ns);
  const double rate = static_cast<double>(ledger.captured) /
                      (static_cast<double>(ledger.cpu_ns) / 1e9);
  EXPECT_DOUBLE_EQ(prof.delivered_hz(), rate);
  char delivered[32];
  std::snprintf(delivered, sizeof delivered, "%.1f Hz delivered", rate);
  EXPECT_EQ(obs::profile_rate_text(prof),
            std::string("997 Hz requested, ") + delivered);
  EXPECT_EQ(obs::profile_rate_warning(prof).empty(), rate >= 0.8 * 997);

  // The known-hot spin function dominates the self profile.
  const std::vector<obs::ProfileHotspot> hotspots =
      obs::profile_hotspots(prof);
  ASSERT_FALSE(hotspots.empty());
  std::uint64_t spin_self = 0;
  for (const obs::ProfileHotspot& spot : hotspots) {
    if (spot.sym.find("ccmx_test_spin_hot") != std::string::npos) {
      spin_self += spot.self;
    }
  }
  EXPECT_GT(spin_self, prof.samples.size() / 2)
      << "hottest: " << hotspots.front().sym;
  EXPECT_GT(obs::symbolized_sample_fraction(prof), 0.5);

  // Span attribution: the samples taken inside the span carry its id.
  std::uint64_t in_span = 0;
  for (const auto& [span_id, count] : obs::samples_by_span(prof)) {
    if (span_id != 0) in_span += count;
  }
  EXPECT_GT(in_span, 0u);
  std::filesystem::remove(options.path);
}

#if defined(__linux__)
/// Internal linkage on purpose: the dynamic symbol table does not list
/// this function, so dladdr cannot name its samples and the profiler
/// falls back to naming them by module and file offset.
__attribute__((noinline)) std::uint64_t spin_unexported(double seconds) {
  volatile std::uint64_t acc = 1;
  const double until = thread_cpu_seconds() + seconds;
  do {
    for (int i = 0; i < 4096; ++i) {
      acc = acc * 2862933555777941757ULL + 3037000493ULL;
    }
  } while (thread_cpu_seconds() < until);
  return acc;
}

/// One executable PT_LOAD segment of the test binary, from its own
/// program headers: loaded at [lo, hi), mapping file offset `offset`.
struct TextSegment {
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
  std::uint64_t offset = 0;
};

std::vector<TextSegment> test_binary_text() {
  std::vector<TextSegment> text;
  dl_iterate_phdr(
      [](dl_phdr_info* info, std::size_t, void* out) {
        for (ElfW(Half) i = 0; i < info->dlpi_phnum; ++i) {
          const ElfW(Phdr)& ph = info->dlpi_phdr[i];
          if (ph.p_type != PT_LOAD || (ph.p_flags & PF_X) == 0) continue;
          const std::uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
          static_cast<std::vector<TextSegment>*>(out)->push_back(
              {lo, lo + ph.p_memsz, ph.p_offset});
        }
        return 1;  // the first object reported is the main program
      },
      &text);
  return text;
}

TEST(Profiler, UnnamedFramesCarryTheirFileOffset) {
  const std::vector<TextSegment> text = test_binary_text();
  ASSERT_FALSE(text.empty());
  obs::ProfilerOptions options;
  options.path = temp_profile_path("file_offset");
  options.hz = 997;
  options.drain_interval_ms = 20;
  ASSERT_TRUE(obs::profiler_start(options))
      << obs::profiler_unavailable_reason();
  spin_unexported(0.8);
  (void)obs::profiler_stop();

  const obs::ProfileData prof = obs::load_profile(options.path);
  ASSERT_TRUE(prof.ledger_balances());
  ASSERT_FALSE(prof.samples.empty());
  // Every frame dladdr could not name inside the test binary is
  // module+0x<off>, and `off` is the pc's file offset by the binary's
  // own headers: p_offset + pc - dlpi_addr - p_vaddr, whatever the load
  // address, so addr2line resolves it.
  std::set<std::uint64_t> unnamed;
  for (const obs::ProfileFrame& frame : prof.frames) {
    const auto segment =
        std::find_if(text.begin(), text.end(), [&](const TextSegment& t) {
          return frame.pc >= t.lo && frame.pc < t.hi;
        });
    if (frame.symbolized || segment == text.end()) continue;
    unnamed.insert(frame.id);
    char suffix[32];
    std::snprintf(suffix, sizeof suffix, "+0x%llx",
                  static_cast<unsigned long long>(frame.off));
    EXPECT_FALSE(frame.module.empty()) << frame.sym;
    EXPECT_EQ(frame.sym, frame.module + suffix);
    EXPECT_EQ(frame.off, segment->offset + (frame.pc - segment->lo))
        << frame.sym;
  }
  // The hot function's samples are the ones that landed there.
  std::size_t unnamed_leaves = 0;
  for (const obs::ProfileSample& sample : prof.samples) {
    if (!sample.stack.empty() && unnamed.count(sample.stack.front()) != 0) {
      ++unnamed_leaves;
    }
  }
  EXPECT_GT(unnamed_leaves, prof.samples.size() / 2);
  std::filesystem::remove(options.path);
}
#endif

TEST(Profiler, RingOverflowIsCountedNeverSilent) {
  // Test seam: the smallest ring plus a drain interval far longer than
  // the spin forces overflow, and the ledger must still conserve.
  obs::ProfilerOptions options;
  options.path = temp_profile_path("overflow");
  options.hz = 997;
  options.ring_capacity = 8;  // clamp floor
  options.drain_interval_ms = 10000;
  ASSERT_TRUE(obs::profiler_start(options))
      << obs::profiler_unavailable_reason();
  ccmx_test_spin_hot(0.8);
  const obs::ProfilerLedger ledger = obs::profiler_stop();

  EXPECT_EQ(ledger.captured, ledger.written + ledger.dropped);
  EXPECT_GT(ledger.dropped, 0u);

  const obs::ProfileData prof = obs::load_profile(options.path);
  ASSERT_TRUE(prof.has_ledger);
  EXPECT_TRUE(prof.ledger_balances());
  EXPECT_GT(prof.ledger.dropped, 0u);
  std::filesystem::remove(options.path);
}

TEST(Profiler, CoexistsWithTraceWriter) {
  // The profiler and the trace writer at once, on the main thread and a
  // worker — the SIGPROF handler interrupts span emission and trace
  // batch writes, and nothing may deadlock or miscount.
  const std::string trace_path = temp_profile_path("coexist_trace");
  const std::string prof_path = temp_profile_path("coexist_prof");

  obs::set_enabled(true);
  ASSERT_TRUE(obs::open_trace_sink(trace_path));

  obs::ProfilerOptions options;
  options.path = prof_path;
  options.hz = 997;
  options.drain_interval_ms = 20;
  ASSERT_TRUE(obs::profiler_start(options))
      << obs::profiler_unavailable_reason();

  std::atomic<bool> worker_ok{false};
  std::thread worker([&] {
    obs::profiler_register_thread();
    const obs::ScopedSpan span("test.worker");
    ccmx_test_spin_hot(0.3);
    worker_ok.store(true);
  });
  {
    const obs::ScopedSpan span("test.main");
    ccmx_test_spin_hot(0.3);
  }
  worker.join();
  EXPECT_TRUE(worker_ok.load());

  const obs::ProfilerLedger ledger = obs::profiler_stop();
  obs::flush_thread();
  obs::close_trace_sink();
  obs::set_enabled(false);

  EXPECT_EQ(ledger.captured, ledger.written + ledger.dropped);
  EXPECT_GT(ledger.captured, 0u);
  EXPECT_GE(ledger.threads, 2u);  // main + registered worker
  EXPECT_GT(std::filesystem::file_size(trace_path), 0u);

  const obs::ProfileData prof = obs::load_profile(prof_path);
  EXPECT_TRUE(prof.ledger_balances());
  std::filesystem::remove(trace_path);
  std::filesystem::remove(prof_path);
}

}  // namespace

#endif  // CCMX_OBS_DISABLED
