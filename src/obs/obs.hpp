// ccmx::obs — lightweight tracing, counters, and histograms.
//
// The paper's results are *counts* (bits per round, rectangle sizes,
// singular-matrix censuses), so the observability layer is count-first: a
// process-wide registry of named Counters (thread-local slots, folded when
// worker threads exit, so totals under util::parallel_for are exact),
// named Histograms (log2-bucketed, mutex-protected — recorded rarely), and
// RAII ScopedSpans that time a region and feed both the histogram registry
// and an optional JSONL event stream.
//
// Cost model: everything is gated on `enabled()` (one relaxed atomic
// load).  Tracing is OFF by default; set CCMX_TRACE=1 to enable counters
// and spans, CCMX_TRACE_FILE=<path> to also stream JSONL events.  Defining
// CCMX_OBS_DISABLED (CMake option CCMX_OBS=OFF) compiles the whole layer
// down to empty inline no-ops.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ccmx::obs {

/// Summary of one histogram: streaming moments plus quantiles estimated
/// from power-of-two buckets, linearly interpolated within the target
/// bucket (error bounded by the bucket width, not a factor of 2).
struct HistSummary {
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// A quiescent-point view of the registry (counters folded across all
/// finished threads plus the live ones; call only when workers are joined).
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, HistSummary>> histograms;
  std::vector<std::pair<std::string, std::string>> attributes;
};

#ifndef CCMX_OBS_DISABLED

/// True when tracing is on (CCMX_TRACE=1 / CCMX_TRACE_FILE set, or an
/// explicit set_enabled(true)).  One relaxed atomic load.
[[nodiscard]] bool enabled() noexcept;

/// Runtime override of the environment default (used by tests and CLIs).
void set_enabled(bool on) noexcept;

/// Monotonic microseconds since the first obs call in this process.
[[nodiscard]] std::int64_t now_us() noexcept;

/// Named monotonic counter.  Construction interns the name (mutex);
/// add() touches only a thread-local slot, so it is safe and exact under
/// util::parallel_for — worker slots fold into the global registry when
/// the worker thread exits.
class Counter {
 public:
  explicit Counter(std::string_view name);

  void add(std::uint64_t delta = 1) const noexcept;

  /// Folded total.  Safe to call while workers are still adding (slots
  /// are relaxed atomics); the result is only exact at quiescent points.
  [[nodiscard]] std::uint64_t value() const;

 private:
  std::uint32_t id_;
};

/// Named histogram of doubles (durations, ratios, sizes).  record() takes
/// a mutex — meant for per-invocation rates, not per-element ones.
class Histogram {
 public:
  explicit Histogram(std::string_view name);

  void record(double value) const;

 private:
  std::uint32_t id_;
};

/// RAII timer: on destruction records wall seconds into histogram
/// "span.<name>" and, when the event sink is open, emits a JSONL event
/// {"ev":"span","id":...,"parent":...,"tid":...,"name":...,
///  "t_us":<start>,"dur_us":...[,"args":{...}]}.
///
/// Spans form a per-thread tree: every armed span gets a process-unique
/// id, its parent is the innermost armed span on the same thread (0 at
/// the root), and tid is a small sequential id assigned to each thread
/// on first use.  Events are emitted at scope *exit* (that is when the
/// duration is known), so children appear in the file before their
/// parents — "t_us" always records the construction time, and readers
/// must order by it, never by line number (see obs/trace_reader.hpp,
/// which rebuilds the tree from id/parent).
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches a key/value to the span's JSONL event ("args" object).
  /// Dropped when the span is unarmed or no event sink is open; keys
  /// repeat in emission order (callers should not reuse them).
  void arg(std::string_view key, std::string_view value);
  void arg(std::string_view key, std::uint64_t value);

  /// Process-unique span id (0 when tracing was disabled at construction).
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  /// Wall seconds since construction (0 when tracing was disabled then).
  [[nodiscard]] double seconds() const noexcept;

 private:
  std::string name_;
  std::string args_json_;  // pre-rendered `"k":v` pairs, comma-joined
  std::int64_t start_us_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  bool armed_ = false;
};

/// Sequential id of the calling thread (1-based, assigned on first use).
/// Stable for the thread's lifetime; spans stamp it into their events.
[[nodiscard]] std::uint32_t thread_id() noexcept;

/// Id of the innermost armed span on this thread, 0 outside any span.
/// Lets non-span events (channel sends) reference their enclosing span.
[[nodiscard]] std::uint64_t current_span_id() noexcept;

/// Free-form key/value attached to the run (seed, command, params).
/// Later writes overwrite earlier ones for the same key.
void set_attribute(std::string_view key, std::string_view value);

/// True when a JSONL event sink is open (CCMX_TRACE_FILE or an explicit
/// open_trace_sink).  Use to skip building event payloads that would be
/// dropped.  One relaxed atomic load after the first (lazy) probe.
[[nodiscard]] bool event_sink_open() noexcept;

/// Appends one pre-rendered JSON object as a line to the event sink
/// (no-op when the sink is closed).  `json_object` must not contain '\n'.
///
/// Lines collect in a per-thread buffer; the emit that fills a batch of
/// 64 writes the batch to the trace file and flushes it before it
/// returns.  A partial batch is written by flush_trace_sink,
/// close_trace_sink, flush_thread or the thread's exit.  Each thread's
/// lines reach the file in emission order, and an open sink loses
/// nothing.  Every line a write takes from a buffer counts
/// obs.trace.emitted; every such line that is not written counts
/// obs.trace.dropped: its thread buffered it while close_trace_sink ran,
/// or a write to the file failed (after which the file is closed).
void emit_event(std::string_view json_object);

/// Opens (or replaces, after closing the current one) the trace sink,
/// appending to the file at `path`.  Returns false — and counts
/// obs.trace.open_failed, reporting to stderr once — when the file
/// cannot be opened.  The environment path (CCMX_TRACE_FILE) goes
/// through this too, lazily on the first emit.
bool open_trace_sink(const std::string& path);

/// Writes every thread's buffered lines to the trace file.  No-op
/// without a sink.  Call before reading a trace file back in the writing
/// process.
void flush_trace_sink();

/// Writes every thread's buffered lines and closes the sink; emit_event
/// becomes a no-op until a sink is opened again.  Safe to call with no
/// sink open.
void close_trace_sink();

/// True when trace output is known incomplete: some events were dropped
/// (obs.trace.dropped > 0) or the trace file failed to open
/// (obs.trace.open_failed > 0).  Stamped into the run report so readers
/// can tell a short trace from a truncated one.
[[nodiscard]] bool trace_truncated();

/// Folds the calling thread's counter slots into the global registry now
/// (normally automatic at thread exit) and writes its buffered trace
/// lines to the sink.
void flush_thread();

/// Folded view of every counter/histogram/attribute registered so far.
[[nodiscard]] Snapshot snapshot();

/// Zeroes all counter/histogram/attribute *values* (names stay interned)
/// so tests can isolate their deltas.
void reset_values();

#else  // CCMX_OBS_DISABLED: the whole layer is inline no-ops.

[[nodiscard]] inline bool enabled() noexcept { return false; }
inline void set_enabled(bool) noexcept {}
[[nodiscard]] inline std::int64_t now_us() noexcept { return 0; }

class Counter {
 public:
  explicit Counter(std::string_view) {}
  void add(std::uint64_t = 1) const noexcept {}
  [[nodiscard]] std::uint64_t value() const { return 0; }
};

class Histogram {
 public:
  explicit Histogram(std::string_view) {}
  void record(double) const {}
};

class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void arg(std::string_view, std::string_view) {}
  void arg(std::string_view, std::uint64_t) {}
  [[nodiscard]] std::uint64_t id() const noexcept { return 0; }
  [[nodiscard]] double seconds() const noexcept { return 0.0; }
};

[[nodiscard]] inline std::uint32_t thread_id() noexcept { return 0; }
[[nodiscard]] inline std::uint64_t current_span_id() noexcept { return 0; }

inline void set_attribute(std::string_view, std::string_view) {}
[[nodiscard]] inline bool event_sink_open() noexcept { return false; }
inline void emit_event(std::string_view) {}
inline bool open_trace_sink(const std::string&) { return false; }
inline void flush_trace_sink() {}
inline void close_trace_sink() {}
[[nodiscard]] inline bool trace_truncated() { return false; }
inline void flush_thread() {}
[[nodiscard]] inline Snapshot snapshot() { return {}; }
inline void reset_values() {}

#endif  // CCMX_OBS_DISABLED

}  // namespace ccmx::obs
