// Trace sink: lossless multi-thread storms, per-thread FIFO order in
// the file, a full batch written by the emit that fills it, residue
// written by flush, close and thread exit (and counted as dropped when it
// outlives close), open- and write-failure accounting, and the sampled
// emit meter.
// Runs under TSan in CI — the storms are the data-race harness for
// emitters writing their batches while a sweep writes their residue.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "obs/obs.hpp"

namespace {

using namespace ccmx;

#ifndef CCMX_OBS_DISABLED

/// Fresh per-test trace path (tests share one process; never reuse a
/// file, or a previous test's lines would pollute the line count).
std::string temp_trace_path(std::string_view test) {
  std::string name = "ccmx_test_sink_" + std::string(test);
#if defined(__unix__) || defined(__APPLE__)
  name += "_" + std::to_string(::getpid());
#endif
  const std::string path =
      (std::filesystem::temp_directory_path() / (name + ".jsonl")).string();
  std::filesystem::remove(path);
  return path;
}

class TracingOn {
 public:
  TracingOn() : was_(obs::enabled()) {
    obs::set_enabled(true);
    obs::reset_values();
  }
  ~TracingOn() {
    obs::close_trace_sink();
    obs::reset_values();
    obs::set_enabled(was_);
  }

 private:
  bool was_;
};

std::uint64_t counter(std::string_view name) {
  const obs::Snapshot snap = obs::snapshot();
  for (const auto& [key, value] : snap.counters) {
    if (key == name) return value;
  }
  return 0;
}

std::vector<std::string> file_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string storm_line(std::size_t tid, std::uint64_t seq) {
  return "{\"ev\":\"storm\",\"tid\":" + std::to_string(tid) +
         ",\"seq\":" + std::to_string(seq) + "}";
}

/// Extracts the decimal value following `"key":` in a storm line.
std::uint64_t field(const std::string& line, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t at = line.find(needle);
  EXPECT_NE(at, std::string::npos) << line;
  return std::strtoull(line.c_str() + at + needle.size(), nullptr, 10);
}

/// Storms the sink from `threads` emitters, each publishing its buffer
/// before exiting, then closes the sink so the file is complete.
void storm(std::size_t threads, std::uint64_t events_per_thread) {
  std::vector<std::jthread> emitters;
  emitters.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    emitters.emplace_back([t, events_per_thread] {
      for (std::uint64_t i = 0; i < events_per_thread; ++i) {
        obs::emit_event(storm_line(t, i));
      }
      obs::flush_thread();
    });
  }
  emitters.clear();  // join
  obs::close_trace_sink();
  obs::flush_thread();
}

TEST(TraceSink, BlockPolicyStormIsLosslessAtDefaultCapacity) {
  const TracingOn guard;
  const std::string path = temp_trace_path("block_default");
  ASSERT_TRUE(obs::open_trace_sink(path));

  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 5'000;
  storm(kThreads, kPerThread);

  EXPECT_EQ(counter("obs.trace.emitted"), kThreads * kPerThread);
  EXPECT_EQ(counter("obs.trace.dropped"), 0u);
  EXPECT_FALSE(obs::trace_truncated());
  EXPECT_EQ(file_lines(path).size(), kThreads * kPerThread);
  std::filesystem::remove(path);
}

TEST(TraceSink, PreservesPerThreadOrderUnderContention) {
  const TracingOn guard;
  const std::string path = temp_trace_path("order");
  // 4 x 2000 events make the emitters contend for the file over and
  // over; the file must still hold every thread's events in emission
  // order.
  ASSERT_TRUE(obs::open_trace_sink(path));

  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 2'000;
  storm(kThreads, kPerThread);

  EXPECT_EQ(counter("obs.trace.dropped"), 0u);
  const std::vector<std::string> lines = file_lines(path);
  ASSERT_EQ(lines.size(), kThreads * kPerThread);
  std::map<std::uint64_t, std::uint64_t> next_seq;
  for (const std::string& line : lines) {
    const std::uint64_t tid = field(line, "tid");
    const std::uint64_t seq = field(line, "seq");
    EXPECT_EQ(seq, next_seq[tid]) << "thread " << tid
                                  << " events out of order in the file";
    next_seq[tid] = seq + 1;
  }
  std::filesystem::remove(path);
}

TEST(TraceSink, FlushDrainsSubBatchEventsWhileOpen) {
  const TracingOn guard;
  const std::string path = temp_trace_path("flush");
  ASSERT_TRUE(obs::open_trace_sink(path));

  // Five events sit far below the per-thread batch threshold; only the
  // explicit flush writes them to the file.
  for (std::uint64_t i = 0; i < 5; ++i) {
    obs::emit_event(storm_line(0, i));
  }
  obs::flush_trace_sink();
  EXPECT_EQ(file_lines(path).size(), 5u) << "flush left events buffered";
  EXPECT_EQ(counter("obs.trace.emitted"), 5u);
  EXPECT_EQ(counter("obs.trace.dropped"), 0u);

  obs::close_trace_sink();
  EXPECT_EQ(file_lines(path).size(), 5u);
  std::filesystem::remove(path);
}

TEST(TraceSink, CloseSweepsResidueWithoutAnExplicitFlush) {
  const TracingOn guard;
  const std::string path = temp_trace_path("close");
  ASSERT_TRUE(obs::open_trace_sink(path));

  for (std::uint64_t i = 0; i < 7; ++i) {
    obs::emit_event(storm_line(0, i));
  }
  // No flush_thread / flush_trace_sink: close must write this thread's
  // buffer on its own before the file closes.
  obs::close_trace_sink();

  EXPECT_EQ(file_lines(path).size(), 7u);
  EXPECT_EQ(counter("obs.trace.emitted"), 7u);
  EXPECT_EQ(counter("obs.trace.dropped"), 0u);
  EXPECT_FALSE(obs::trace_truncated());
  std::filesystem::remove(path);
}

TEST(TraceSink, EmitAfterCloseIsANoOpNotADrop) {
  const TracingOn guard;
  const std::string path = temp_trace_path("after_close");
  ASSERT_TRUE(obs::open_trace_sink(path));
  obs::emit_event(storm_line(0, 0));
  obs::close_trace_sink();

  // The mode gate stops these before they are buffered or counted.
  obs::emit_event(storm_line(0, 1));
  obs::emit_event(storm_line(0, 2));

  EXPECT_EQ(counter("obs.trace.emitted"), 1u);
  EXPECT_EQ(counter("obs.trace.dropped"), 0u);
  EXPECT_EQ(file_lines(path).size(), 1u);
  std::filesystem::remove(path);
}

TEST(TraceSink, FullBatchIsInTheFileWhenItsEmitReturns) {
  const TracingOn guard;
  const std::string path = temp_trace_path("full_batch");
  ASSERT_TRUE(obs::open_trace_sink(path));

  // No flush: the 64th emit fills the batch and writes it itself.
  for (std::uint64_t i = 0; i < 64; ++i) {
    obs::emit_event(storm_line(0, i));
  }
  EXPECT_EQ(file_lines(path).size(), 64u);
  EXPECT_EQ(counter("obs.trace.emitted"), 64u);
  EXPECT_EQ(counter("obs.trace.dropped"), 0u);
  std::filesystem::remove(path);
}

TEST(TraceSink, ExitingThreadWritesItsResidueBeforeJoinReturns) {
  const TracingOn guard;
  const std::string path = temp_trace_path("thread_exit");
  ASSERT_TRUE(obs::open_trace_sink(path));

  // No flush_thread: the thread's exit writes its partial batch.
  std::thread([] {
    for (std::uint64_t i = 0; i < 5; ++i) {
      obs::emit_event(storm_line(1, i));
    }
  }).join();
  EXPECT_EQ(file_lines(path).size(), 5u);
  EXPECT_EQ(counter("obs.trace.emitted"), 5u);
  EXPECT_EQ(counter("obs.trace.dropped"), 0u);
  std::filesystem::remove(path);
}

TEST(TraceSink, ResidueThatOutlivesCloseIsCountedAsDropped) {
  const TracingOn guard;
  // close_trace_sink writes every thread's residue, then closes the file.
  // Threads still emitting meanwhile buffer lines after that write; the
  // lines stay in their buffers and are dropped when the threads exit.
  // The race is retried until a close strands some residue (almost
  // always the first attempt; 4 emitters keep one on a CPU).
  std::uint64_t dropped = 0;
  for (int attempt = 0; attempt < 1'000 && dropped == 0; ++attempt) {
    obs::reset_values();
    const std::string path = temp_trace_path("outlives_close");
    ASSERT_TRUE(obs::open_trace_sink(path));
    std::atomic<std::uint64_t> emits{0};
    std::atomic<bool> stop{false};
    std::vector<std::jthread> emitters;
    for (std::size_t t = 0; t < 4; ++t) {
      emitters.emplace_back([&, t] {
        while (!stop.load(std::memory_order_relaxed)) {
          obs::emit_event(storm_line(t, emits.fetch_add(1)));
        }
      });
    }
    while (emits.load() < 1'000) std::this_thread::yield();
    obs::close_trace_sink();
    stop.store(true);
    emitters.clear();  // join
    dropped = counter("obs.trace.dropped");
    EXPECT_EQ(file_lines(path).size() + dropped,
              counter("obs.trace.emitted"))
        << "ledger out of balance on attempt " << attempt;
    std::filesystem::remove(path);
  }
  EXPECT_GT(dropped, 0u) << "no close stranded an emitter's residue";
  EXPECT_TRUE(obs::trace_truncated());
}

TEST(TraceSink, FailedWriteCountsItsLinesAsDropped) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full to fail writes on";
  }
  const TracingOn guard;
  // Every write to /dev/full fails (ENOSPC), like a full disk.  The lost
  // batch must show in the ledger, and so must every line after it.
  ASSERT_TRUE(obs::open_trace_sink("/dev/full"));
  for (std::uint64_t i = 0; i < 65; ++i) {
    obs::emit_event(storm_line(0, i));
  }
  obs::flush_trace_sink();
  EXPECT_EQ(counter("obs.trace.emitted"), 65u);
  EXPECT_EQ(counter("obs.trace.dropped"), 65u);
  EXPECT_TRUE(obs::trace_truncated());
}

TEST(TraceSink, EmitMeterSkipsAThreadsFirstEmit) {
  const TracingOn guard;
  const std::string path = temp_trace_path("meter_first");
  ASSERT_TRUE(obs::open_trace_sink(path));

  // The first emit builds the thread's buffer; sampling it would scale
  // that one-time set-up by the sampling period.
  std::thread([] { obs::emit_event(storm_line(3, 0)); }).join();
  EXPECT_EQ(counter("obs.trace.emitted"), 1u);
  EXPECT_EQ(counter("obs.overhead.emit_ns"), 0u);
  std::filesystem::remove(path);
}

TEST(TraceSink, EmitMeterSamplesOneEmitInSixtyFour) {
  const TracingOn guard;
  const std::string path = temp_trace_path("meter_64");
  ASSERT_TRUE(obs::open_trace_sink(path));

  std::thread([] {
    for (std::uint64_t i = 0; i < 64; ++i) {
      obs::emit_event(storm_line(4, i));
    }
  }).join();
  EXPECT_EQ(counter("obs.trace.emitted"), 64u);
  EXPECT_GT(counter("obs.overhead.emit_ns"), 0u);
  std::filesystem::remove(path);
}

TEST(TraceSink, FailedOpenIsCountedAndDisablesTheSink) {
  const TracingOn guard;
  const std::string path =
      "/nonexistent_ccmx_dir/definitely/not/here/trace.jsonl";
  EXPECT_FALSE(obs::open_trace_sink(path));
  EXPECT_EQ(counter("obs.trace.open_failed"), 1u);
  EXPECT_TRUE(obs::trace_truncated())
      << "an open failure must mark the trace truncated";
  EXPECT_FALSE(obs::event_sink_open());

  // Emits after the failed open vanish at the gate — counted nowhere,
  // so the ledger stays balanced at zero.
  obs::emit_event(storm_line(0, 0));
  EXPECT_EQ(counter("obs.trace.emitted"), 0u);
  EXPECT_EQ(counter("obs.trace.dropped"), 0u);
}

#endif  // CCMX_OBS_DISABLED

}  // namespace
