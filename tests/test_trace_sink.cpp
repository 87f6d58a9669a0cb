// Async trace sink: multi-thread storms against both backpressure
// policies, the conservation ledger (written + dropped == emitted),
// per-thread FIFO order in the file, sub-batch flush, clean close, and
// open-failure accounting.  Runs under TSan in CI — the storms are the
// data-race harness for the emitter/drainer handoff.
#include <gtest/gtest.h>

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

bool open_sink(const std::string& path, obs::TracePolicy policy,
               std::size_t capacity = 0) {
  obs::TraceSinkOptions options;
  options.path = path;
  options.policy = policy;
  options.capacity = capacity;
  return obs::open_trace_sink(options);
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
  ASSERT_TRUE(open_sink(path, obs::TracePolicy::kBlock));

  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 5'000;
  storm(kThreads, kPerThread);

  EXPECT_EQ(counter("obs.trace.emitted"), kThreads * kPerThread);
  EXPECT_EQ(counter("obs.trace.dropped"), 0u);
  EXPECT_FALSE(obs::trace_truncated());
  EXPECT_EQ(file_lines(path).size(), kThreads * kPerThread);
  std::filesystem::remove(path);
}

TEST(TraceSink, BlockPolicyPreservesPerThreadOrderUnderBackpressure) {
  const TracingOn guard;
  const std::string path = temp_trace_path("block_order");
  // A ring of 256 events under 4 x 2000 forces the emitters through the
  // backpressure wait over and over; the file must still hold every
  // thread's events in emission order.
  ASSERT_TRUE(open_sink(path, obs::TracePolicy::kBlock, /*capacity=*/256));

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

TEST(TraceSink, DropPolicyStormKeepsTheLedgerBalanced) {
  const TracingOn guard;
  const std::string path = temp_trace_path("drop_storm");
  // One batch of ring capacity: the drainer cannot keep up, so the drop
  // policy must shed load — and every shed event must be counted.
  ASSERT_TRUE(open_sink(path, obs::TracePolicy::kDrop, /*capacity=*/64));

  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 50'000;
  storm(kThreads, kPerThread);

  const std::uint64_t emitted = counter("obs.trace.emitted");
  const std::uint64_t dropped = counter("obs.trace.dropped");
  const std::size_t written = file_lines(path).size();
  EXPECT_EQ(emitted, kThreads * kPerThread);
  EXPECT_GT(dropped, 0u) << "a 64-event ring absorbed a 200k-event storm";
  EXPECT_TRUE(obs::trace_truncated());
  EXPECT_EQ(written + dropped, emitted)
      << written << " written + " << dropped << " dropped != " << emitted;
  std::filesystem::remove(path);
}

TEST(TraceSink, FlushDrainsSubBatchEventsWhileOpen) {
  const TracingOn guard;
  const std::string path = temp_trace_path("flush");
  ASSERT_TRUE(open_sink(path, obs::TracePolicy::kBlock));

  // Five events sit far below the per-thread batch threshold; only the
  // explicit flush moves them through the ring and onto disk.
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
  ASSERT_TRUE(open_sink(path, obs::TracePolicy::kBlock));

  for (std::uint64_t i = 0; i < 7; ++i) {
    obs::emit_event(storm_line(0, i));
  }
  // No flush_thread / flush_trace_sink: the drainer's final pass must
  // sweep this thread's buffer on its own before the file closes.
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
  ASSERT_TRUE(open_sink(path, obs::TracePolicy::kBlock));
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

TEST(TraceSink, FailedOpenIsCountedAndDisablesTheSink) {
  const TracingOn guard;
  const std::string path =
      "/nonexistent_ccmx_dir/definitely/not/here/trace.jsonl";
  EXPECT_FALSE(open_sink(path, obs::TracePolicy::kBlock));
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
