#include "obs/obs.hpp"

#ifndef CCMX_OBS_DISABLED

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <unordered_map>

#include "obs/json.hpp"
#include "util/env.hpp"
#include "util/narrow.hpp"
#include "util/require.hpp"

namespace ccmx::obs {

namespace {

constexpr std::size_t kBuckets = 128;  // frexp exponents -64..63

/// Maps a value to its power-of-two bucket; bucket b covers
/// [2^(b-65), 2^(b-64)).  Non-positive values land in bucket 0.
std::size_t bucket_of(double value) noexcept {
  if (!(value > 0.0)) return 0;
  int exp = 0;
  (void)std::frexp(value, &exp);  // value = mantissa * 2^exp, mantissa in [0.5,1)
  const int b = std::clamp(exp + 64, 0, util::narrow_cast<int>(kBuckets) - 1);
  return static_cast<std::size_t>(b);
}

struct HistData {
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  std::array<std::uint64_t, kBuckets> buckets{};
};

struct Registry;
Registry& registry();
struct ThreadEventBuffer;

/// Hard cap on distinct counter names (ids index fixed per-thread slot
/// arrays, so slots never reallocate while workers are adding).
constexpr std::size_t kMaxCounters = 256;

/// Per-thread counter slots; folds into the registry on thread exit.
/// Slots are relaxed atomics: the owning thread is the only writer, but
/// Counter::value() and snapshot() may read them from other threads
/// mid-sweep (e.g. a progress reporter), which TSan flags as a data race
/// on plain integers.  Relaxed ops keep add() at one uncontended RMW.
struct ThreadSink {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> slots{};
  ThreadSink();
  ~ThreadSink();
  void fold(bool unregister);
};

struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, std::uint32_t> counter_ids;
  std::vector<std::string> counter_names;
  std::vector<std::uint64_t> folded_counters;
  std::vector<ThreadSink*> live_sinks;
  std::unordered_map<std::string, std::uint32_t> hist_ids;
  std::vector<std::string> hist_names;
  std::vector<HistData> hists;
  std::vector<std::pair<std::string, std::string>> attributes;

  /// Guards the trace file and the probe/report flags.  The registry is
  /// built during static initialisation (file-scope Counters intern into
  /// it), so the file outlives the worker pool, whose threads write their
  /// residue when they exit.
  std::mutex trace_mu;
  std::ofstream trace_file;  // open iff a trace sink is open
  bool env_probed = false;
  bool open_failure_reported = false;
  /// Guards event_buffers (thread registration vs the flush sweep).
  std::mutex buffers_mu;
  std::vector<ThreadEventBuffer*> event_buffers;

  std::uint32_t intern_counter(std::string_view name) {
    const std::scoped_lock lock(mu);
    const auto [it, fresh] =
        counter_ids.try_emplace(
            std::string(name),
            util::narrow_cast<std::uint32_t>(counter_names.size()));
    if (fresh) {
      CCMX_REQUIRE(counter_names.size() < kMaxCounters,
                   "too many distinct obs counters");
      counter_names.emplace_back(name);
      folded_counters.push_back(0);
    }
    return it->second;
  }

  std::uint32_t intern_hist(std::string_view name) {
    const std::scoped_lock lock(mu);
    const auto [it, fresh] = hist_ids.try_emplace(
        std::string(name),
        util::narrow_cast<std::uint32_t>(hist_names.size()));
    if (fresh) {
      hist_names.emplace_back(name);
      hists.emplace_back();
    }
    return it->second;
  }
};

Registry& registry() {
  static Registry reg;
  return reg;
}

ThreadSink::ThreadSink() {
  Registry& reg = registry();
  const std::scoped_lock lock(reg.mu);
  reg.live_sinks.push_back(this);
}

ThreadSink::~ThreadSink() { fold(/*unregister=*/true); }

void ThreadSink::fold(bool unregister) {
  Registry& reg = registry();
  const std::scoped_lock lock(reg.mu);
  for (std::size_t i = 0; i < reg.folded_counters.size(); ++i) {
    reg.folded_counters[i] += slots[i].exchange(0, std::memory_order_relaxed);
  }
  if (unregister) {
    reg.live_sinks.erase(
        std::remove(reg.live_sinks.begin(), reg.live_sinks.end(), this),
        reg.live_sinks.end());
  }
}

ThreadSink& thread_sink() {
  thread_local ThreadSink sink;
  return sink;
}

// ------------------------------------------------------------ trace sink
//
// emit_event appends each line to a per-thread staging buffer
// (ThreadEventBuffer); the emit that fills a batch writes the buffer to
// the one trace file and flushes it.  flush_trace_sink and
// close_trace_sink sweep every thread's residue (a partial batch) into
// the file; flush_thread and thread exit write the calling thread's.
// A buffer's mutex is held across its write, so a sweep never overtakes
// its owner's batch and each thread's lines stay in emission order.
// Lock order is strictly
//     Registry::buffers_mu  ->  ThreadEventBuffer::mu  ->  Registry::trace_mu
// (Registry::mu, the counter mutex, is a leaf acquirable under any of
// them).

/// Fast-path gate for emit_event / event_sink_open: one atomic load
/// instead of a mutex.  Unknown -> {None, Open} on the lazy env probe or
/// an explicit open; anything -> None on close.
constexpr std::uint8_t kSinkUnknown = 0;
constexpr std::uint8_t kSinkNone = 1;
constexpr std::uint8_t kSinkOpen = 2;
std::atomic<std::uint8_t> g_sink_mode{kSinkUnknown};

constexpr std::size_t kEmitBatch = 64;  // buffered lines per file write
// Overhead metering samples one emit in kMeterPeriod per thread and
// scales — metering every event would cost two clock reads per emit,
// several times the buffered append it is supposed to measure.
constexpr std::uint32_t kMeterPeriod = 64;

// Conservation ledger, validated by trace_reader against the run report:
// lines-in-file + obs.trace.dropped == obs.trace.emitted at every
// quiescent point, so a drop can never pass unnoticed.  Both sides count
// when a buffer's lines leave it, not per emit call, so lines still
// staged in a buffer are invisible to the ledger until a write or a
// flush takes them.
const Counter g_emitted("obs.trace.emitted");
const Counter g_dropped("obs.trace.dropped");
const Counter g_open_failed("obs.trace.open_failed");
const Counter g_batches("obs.trace.batches");
// Self-overhead meters (summed nanoseconds): what observing costs.
const Counter g_emit_ns("obs.overhead.emit_ns");
const Counter g_flush_ns("obs.overhead.flush_ns");

std::uint64_t ns_since(std::chrono::steady_clock::time_point t0) noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// Per-thread staging buffer for emitted event lines.  Lines live in one
/// newline-terminated byte blob — appending is an amortized memcpy, not
/// a per-event heap allocation — with `count` carrying the line total
/// for the batch threshold and the conservation ledger.
struct ThreadEventBuffer {
  std::mutex mu;
  std::string bytes;
  std::size_t count = 0;
  ThreadEventBuffer();
  ~ThreadEventBuffer();
};

/// Writes `buffer`'s lines to the trace file, flushes it, and empties
/// the buffer; the caller holds buffer.mu.  Lines that find no open file
/// (the sink closed while they sat in the buffer, or an earlier write
/// failed) count as dropped.
void write_buffer(ThreadEventBuffer& buffer) {
  if (buffer.count == 0) return;
  Registry& reg = registry();
  g_emitted.add(buffer.count);
  bool written = false;
  {
    const std::scoped_lock lock(reg.trace_mu);
    if (reg.trace_file.is_open()) {
      const auto t0 = std::chrono::steady_clock::now();
      reg.trace_file.write(buffer.bytes.data(),
                           static_cast<std::streamsize>(buffer.bytes.size()));
      reg.trace_file.flush();
      g_flush_ns.add(ns_since(t0));
      // A failed write (a full disk) may leave a torn line: close the
      // file, so that this batch and every later one count as dropped.
      if (!reg.trace_file.good()) reg.trace_file.close();
      written = reg.trace_file.is_open();
    }
  }
  if (written) {
    g_batches.add();
  } else {
    g_dropped.add(buffer.count);
  }
  buffer.bytes.clear();  // keeps its capacity for the next batch
  buffer.count = 0;
}

ThreadEventBuffer::ThreadEventBuffer() {
  // Force the ThreadSink into existence first: thread_locals destroy in
  // reverse construction order, so ~ThreadEventBuffer can still count
  // its residue through the counter slots.
  (void)thread_sink();
  Registry& reg = registry();
  const std::scoped_lock lock(reg.buffers_mu);
  reg.event_buffers.push_back(this);
}

ThreadEventBuffer::~ThreadEventBuffer() {
  Registry& reg = registry();
  {
    const std::scoped_lock lock(reg.buffers_mu);
    reg.event_buffers.erase(
        std::remove(reg.event_buffers.begin(), reg.event_buffers.end(), this),
        reg.event_buffers.end());
  }
  const std::scoped_lock lock(mu);
  write_buffer(*this);
}

ThreadEventBuffer& thread_event_buffer() {
  thread_local ThreadEventBuffer buffer;
  return buffer;
}

/// Writes every live thread's residue to the trace file.
void write_all_buffers() {
  Registry& reg = registry();
  const std::scoped_lock buffers_lock(reg.buffers_mu);
  for (ThreadEventBuffer* buffer : reg.event_buffers) {
    const std::scoped_lock buffer_lock(buffer->mu);
    write_buffer(*buffer);
  }
}

/// Opens the trace file; reg.trace_mu must be held by the caller.  On
/// failure counts obs.trace.open_failed and reports to stderr once per
/// process.
bool open_trace_file_locked(Registry& reg, const std::string& path) {
  reg.trace_file.open(path, std::ios::app);
  if (!reg.trace_file.is_open()) {
    g_open_failed.add();
    if (!reg.open_failure_reported) {
      reg.open_failure_reported = true;
      std::fprintf(stderr,
                   "ccmx: cannot open trace file '%s': trace events will be "
                   "dropped (see obs.trace.open_failed)\n",
                   path.c_str());
    }
    g_sink_mode.store(kSinkNone, std::memory_order_release);
    return false;
  }
  g_sink_mode.store(kSinkOpen, std::memory_order_release);
  return true;
}

/// Lazily opens the environment-configured sink (CCMX_TRACE_FILE) the
/// first time anything asks.
void probe_env_sink() {
  Registry& reg = registry();
  const std::scoped_lock lock(reg.trace_mu);
  if (reg.env_probed) return;  // another thread probed first
  reg.env_probed = true;
  const char* path = std::getenv("CCMX_TRACE_FILE");
  if (path == nullptr || path[0] == '\0') {
    g_sink_mode.store(kSinkNone, std::memory_order_release);
    return;
  }
  (void)open_trace_file_locked(reg, path);
}

/// The gate behind event_sink_open and emit_event: one atomic load once
/// the lazy probe has run.  Declared inline so that emit_event on a
/// closed sink makes no call.
inline bool sink_open() noexcept {
  std::uint8_t mode = g_sink_mode.load(std::memory_order_acquire);
  if (mode == kSinkUnknown) {
    probe_env_sink();
    mode = g_sink_mode.load(std::memory_order_acquire);
  }
  return mode == kSinkOpen;
}

/// Innermost-first stack of armed span ids on this thread; ScopedSpan
/// pushes on construction and pops on destruction, so back() is always
/// the parent of the next span opened here.
std::vector<std::uint64_t>& span_stack() {
  thread_local std::vector<std::uint64_t> stack;
  return stack;
}

/// Mirror of span_stack().back() (0 when empty) as a thread-local
/// relaxed atomic.  The SIGPROF sampling profiler attributes each
/// sample to the enclosing span from its signal handler, which must
/// never touch the vector (push_back may allocate, and a signal landing
/// mid-reallocation would read freed memory); ScopedSpan keeps the
/// mirror in lockstep with every push/pop.  Constant-initialized, so
/// the TLS slot needs no lazy guard — a plain relaxed load is all the
/// handler does.
std::atomic<std::uint64_t>& current_span_cell() noexcept {
  thread_local std::atomic<std::uint64_t> cell{0};
  return cell;
}

std::uint64_t next_span_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::atomic<bool>& enabled_flag() noexcept {
  static std::atomic<bool> flag{util::env_flag("CCMX_TRACE") ||
                                std::getenv("CCMX_TRACE_FILE") != nullptr};
  return flag;
}

HistSummary summarize(const HistData& h) {
  HistSummary out;
  out.count = h.count;
  out.min = h.min;
  out.max = h.max;
  out.sum = h.sum;
  if (h.count == 0) return out;
  const auto quantile = [&](double p) {
    const auto target = static_cast<std::uint64_t>(
        std::ceil(p * static_cast<double>(h.count)));
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      if (cumulative + h.buckets[b] < target) {
        cumulative += h.buckets[b];
        continue;
      }
      // Linear interpolation inside the log2 bucket [lo, 2*lo): assume
      // the bucket's samples are spread uniformly, place the target at
      // its rank fraction.  Factor-of-2 boundary accuracy becomes
      // width-proportional accuracy; the clamp keeps one-bucket
      // histograms inside the observed [min, max].
      const double lo = std::ldexp(1.0, util::narrow_cast<int>(b) - 65);
      const double fraction = static_cast<double>(target - cumulative) /
                              static_cast<double>(h.buckets[b]);
      return std::clamp(lo + fraction * lo, h.min, h.max);
    }
    return h.max;
  };
  out.p50 = quantile(0.50);
  out.p90 = quantile(0.90);
  out.p99 = quantile(0.99);
  return out;
}

}  // namespace

bool enabled() noexcept {
  return enabled_flag().load(std::memory_order_relaxed);
}

void set_enabled(bool on) noexcept {
  enabled_flag().store(on, std::memory_order_relaxed);
}

std::int64_t now_us() noexcept {
  using clock = std::chrono::steady_clock;
  static const clock::time_point origin = clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(clock::now() -
                                                               origin)
      .count();
}

Counter::Counter(std::string_view name)
    : id_(registry().intern_counter(name)) {}

void Counter::add(std::uint64_t delta) const noexcept {
  if (!enabled()) return;
  thread_sink().slots[id_].fetch_add(delta, std::memory_order_relaxed);
}

std::uint64_t Counter::value() const {
  Registry& reg = registry();
  const std::scoped_lock lock(reg.mu);
  std::uint64_t total =
      id_ < reg.folded_counters.size() ? reg.folded_counters[id_] : 0;
  for (const ThreadSink* sink : reg.live_sinks) {
    total += sink->slots[id_].load(std::memory_order_relaxed);
  }
  return total;
}

Histogram::Histogram(std::string_view name)
    : id_(registry().intern_hist(name)) {}

void Histogram::record(double value) const {
  if (!enabled()) return;
  Registry& reg = registry();
  const std::scoped_lock lock(reg.mu);
  HistData& h = reg.hists[id_];
  if (h.count == 0 || value < h.min) h.min = value;
  if (h.count == 0 || value > h.max) h.max = value;
  h.sum += value;
  ++h.count;
  ++h.buckets[bucket_of(value)];
}

std::uint32_t thread_id() noexcept {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

std::uint64_t current_span_id() noexcept {
  return current_span_cell().load(std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(std::string_view name) {
  if (!enabled()) return;
  name_ = std::string(name);
  id_ = next_span_id();
  parent_ = current_span_id();
  span_stack().push_back(id_);
  current_span_cell().store(id_, std::memory_order_relaxed);
  start_us_ = now_us();
  armed_ = true;
}

void ScopedSpan::arg(std::string_view key, std::string_view value) {
  if (!armed_ || !event_sink_open()) return;
  if (!args_json_.empty()) args_json_ += ',';
  args_json_ += '"' + json::escape(key) + "\":\"" + json::escape(value) + '"';
}

void ScopedSpan::arg(std::string_view key, std::uint64_t value) {
  if (!armed_ || !event_sink_open()) return;
  if (!args_json_.empty()) args_json_ += ',';
  args_json_ += '"' + json::escape(key) + "\":" + std::to_string(value);
}

ScopedSpan::~ScopedSpan() {
  if (!armed_) return;
  span_stack().pop_back();
  current_span_cell().store(parent_, std::memory_order_relaxed);
  const std::int64_t end_us = now_us();
  const double secs = static_cast<double>(end_us - start_us_) * 1e-6;
  Histogram("span." + name_).record(secs);
  if (event_sink_open()) {
    // Emitted at scope exit (the duration is only known now), but t_us
    // is the *construction* time: readers order spans by t_us, not by
    // line number, or nested spans would appear child-before-parent.
    std::string event = "{\"ev\":\"span\",\"id\":" + std::to_string(id_) +
                        ",\"parent\":" + std::to_string(parent_) +
                        ",\"tid\":" + std::to_string(thread_id()) +
                        ",\"name\":\"" + json::escape(name_) +
                        "\",\"t_us\":" + std::to_string(start_us_) +
                        ",\"dur_us\":" + std::to_string(end_us - start_us_);
    if (!args_json_.empty()) event += ",\"args\":{" + args_json_ + '}';
    event += '}';
    emit_event(event);
  }
}

double ScopedSpan::seconds() const noexcept {
  if (!armed_) return 0.0;
  return static_cast<double>(now_us() - start_us_) * 1e-6;
}

void set_attribute(std::string_view key, std::string_view value) {
  Registry& reg = registry();
  const std::scoped_lock lock(reg.mu);
  for (auto& [k, v] : reg.attributes) {
    if (k == key) {
      v = std::string(value);
      return;
    }
  }
  reg.attributes.emplace_back(std::string(key), std::string(value));
}

bool event_sink_open() noexcept { return sink_open(); }

void emit_event(std::string_view json_object) {
  if (!sink_open()) return;
  ThreadEventBuffer& buffer = thread_event_buffer();
  // Sampled self-metering: one emit in kMeterPeriod per thread pays the
  // two clock reads, scaled back up, so obs.overhead.emit_ns stays an
  // unbiased estimate without the clocks dominating the fast path.  The
  // clock starts after the buffer exists and the sample is never a
  // thread's first emit, so the buffer's one-time set-up is not scaled;
  // it stops before a batch write, which flush_ns times in full.
  thread_local std::uint32_t meter_tick = 0;
  const bool metered = ++meter_tick % kMeterPeriod == 0;
  const auto t0 = metered ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};
  const std::scoped_lock lock(buffer.mu);
  buffer.bytes.append(json_object);
  buffer.bytes.push_back('\n');
  if (metered) g_emit_ns.add(ns_since(t0) * kMeterPeriod);
  if (++buffer.count >= kEmitBatch) write_buffer(buffer);
}

bool open_trace_sink(const std::string& path) {
  close_trace_sink();
  // Residue an emitter buffered after close's sweep must not leak into
  // the new file.  With no file open, this sweep counts it as emitted and
  // dropped, so the loss stays visible and the ledger balanced.
  write_all_buffers();
  Registry& reg = registry();
  const std::scoped_lock lock(reg.trace_mu);
  reg.env_probed = true;  // an explicit open overrides the environment
  return open_trace_file_locked(reg, path);
}

void flush_trace_sink() { write_all_buffers(); }

void close_trace_sink() {
  write_all_buffers();
  Registry& reg = registry();
  const std::scoped_lock lock(reg.trace_mu);
  reg.env_probed = true;  // closed stays closed; no lazy re-open
  g_sink_mode.store(kSinkNone, std::memory_order_release);
  if (reg.trace_file.is_open()) reg.trace_file.close();
}

bool trace_truncated() {
  return g_dropped.value() > 0 || g_open_failed.value() > 0;
}

void flush_thread() {
  if (g_sink_mode.load(std::memory_order_acquire) == kSinkOpen) {
    ThreadEventBuffer& buffer = thread_event_buffer();
    const std::scoped_lock lock(buffer.mu);
    write_buffer(buffer);
  }
  thread_sink().fold(/*unregister=*/false);
}

Snapshot snapshot() {
  Registry& reg = registry();
  const std::scoped_lock lock(reg.mu);
  Snapshot snap;
  snap.counters.reserve(reg.counter_names.size());
  for (std::size_t i = 0; i < reg.counter_names.size(); ++i) {
    std::uint64_t total = i < reg.folded_counters.size()
                              ? reg.folded_counters[i]
                              : 0;
    for (const ThreadSink* sink : reg.live_sinks) {
      total += sink->slots[i].load(std::memory_order_relaxed);
    }
    snap.counters.emplace_back(reg.counter_names[i], total);
  }
  snap.histograms.reserve(reg.hist_names.size());
  for (std::size_t i = 0; i < reg.hist_names.size(); ++i) {
    snap.histograms.emplace_back(reg.hist_names[i], summarize(reg.hists[i]));
  }
  snap.attributes = reg.attributes;
  return snap;
}

void reset_values() {
  Registry& reg = registry();
  const std::scoped_lock lock(reg.mu);
  std::fill(reg.folded_counters.begin(), reg.folded_counters.end(), 0);
  for (ThreadSink* sink : reg.live_sinks) {
    for (std::atomic<std::uint64_t>& slot : sink->slots) {
      slot.store(0, std::memory_order_relaxed);
    }
  }
  for (HistData& h : reg.hists) h = HistData{};
  reg.attributes.clear();
}

}  // namespace ccmx::obs

#endif  // CCMX_OBS_DISABLED
