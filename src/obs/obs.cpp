#include "obs/obs.hpp"

#ifndef CCMX_OBS_DISABLED

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <stop_token>
#include <thread>
#include <unordered_map>

#include "obs/json.hpp"
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
class TraceSink;

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

  /// Guards `sink` and the probe/report flags; only ever held alone.
  std::mutex trace_mu;
  bool env_probed = false;
  bool open_failure_reported = false;
  /// Guards event_buffers (thread registration vs the drainer's sweep).
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

  /// Declared last: destroyed first at process exit, so the drainer's
  /// final sweep (joined inside ~TraceSink) still finds every mutex,
  /// buffer list, and counter above alive.
  std::shared_ptr<TraceSink> sink;
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

// --------------------------------------------------------- trace pipeline
//
// Async JSONL path: emit_event appends to a per-thread staging buffer
// (ThreadEventBuffer); a full buffer moves wholesale into the sink's
// bounded MPSC ring; a dedicated drainer jthread sweeps straggler
// buffers, drains the ring, and writes batched lines, flushing on a
// clock.  Lock order is strictly
//     Registry::buffers_mu  ->  ThreadEventBuffer::mu  ->  TraceSink::mu
// (Registry::mu, the counter mutex, is a leaf acquirable under any of
// them; Registry::trace_mu is only ever held alone).  Emitters never
// hold their buffer mutex across a ring push — a push blocked on
// backpressure would deadlock the drainer's sweep — so each buffer
// carries a `pushing` flag that makes the sweep skip it while its owner
// is mid-push, preserving per-thread FIFO order in the file.

/// Fast-path gate for emit_event / event_sink_open: one atomic load
/// instead of a mutex.  Unknown -> {None, Async} on the lazy env probe or
/// an explicit open; anything -> None on close.
constexpr std::uint8_t kSinkUnknown = 0;
constexpr std::uint8_t kSinkNone = 1;
constexpr std::uint8_t kSinkAsync = 2;
std::atomic<std::uint8_t> g_sink_mode{kSinkUnknown};

constexpr std::size_t kDefaultRingCapacity = 65536;  // events in the ring
constexpr std::size_t kEmitBatch = 64;  // buffered events per ring push
// Overhead metering samples one emit in kMeterPeriod per thread and
// scales — metering every event would cost two clock reads per emit,
// several times the buffered append it is supposed to measure.
constexpr std::uint32_t kMeterPeriod = 64;
constexpr std::chrono::milliseconds kDrainInterval{50};  // flush clock

// Conservation ledger, validated by trace_reader against the run report:
// lines-in-file + obs.trace.dropped == obs.trace.emitted at every
// quiescent point, so a drop can never pass unnoticed.  Both sides count
// at batch granularity — an event joins `emitted` when its batch leaves
// the thread buffer, not per emit call — so events still staged in a
// buffer are invisible to the ledger until a flush publishes them.
const Counter g_emitted("obs.trace.emitted");
const Counter g_dropped("obs.trace.dropped");
const Counter g_open_failed("obs.trace.open_failed");
const Counter g_batches("obs.trace.batches");
// Self-overhead meters (summed nanoseconds): what observing costs.
const Counter g_emit_ns("obs.overhead.emit_ns");
const Counter g_block_ns("obs.overhead.block_ns");
const Counter g_drain_ns("obs.overhead.drain_ns");
const Counter g_flush_ns("obs.overhead.flush_ns");

std::uint64_t ns_since(std::chrono::steady_clock::time_point t0) noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// Per-thread staging buffer for emitted event lines.  The owning thread
/// appends (and pushes full batches to the ring); the drainer sweeps
/// residue that never reached the batch threshold.  Lines live in one
/// newline-terminated byte blob — appending is an amortized memcpy, not
/// a per-event heap allocation — with `count` carrying the event total
/// for the conservation ledger and ring capacity accounting.
struct ThreadEventBuffer {
  std::mutex mu;
  std::string bytes;
  std::size_t count = 0;
  /// True while the owner pushes a moved-out batch into the ring; the
  /// sweep skips the buffer then, or newer residue could overtake the
  /// in-flight batch and break per-thread file order.
  std::atomic<bool> pushing{false};
  ThreadEventBuffer();
  ~ThreadEventBuffer();
};

class TraceSink {
 public:
  TraceSink(std::ofstream out, TracePolicy policy, std::size_t capacity);
  ~TraceSink() { shutdown(); }
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Appends one thread's batch (a newline-terminated blob of `count`
  /// lines) to the ring under the backpressure policy.  Admission is
  /// batch-granular: a batch that cannot be placed (ring at event
  /// capacity under kDrop, sink already closed) is dropped whole and all
  /// `count` events land in obs.trace.dropped; under kBlock a batch
  /// admitted just below capacity may overshoot it by at most
  /// kEmitBatch-1 events until the drainer's next pass.
  void push_batch(std::string&& bytes, std::size_t count);

  /// Drainer-only: ring insertion ignoring capacity (the drainer empties
  /// the ring right after, so the overshoot is transient).
  void force_push(std::string&& bytes, std::size_t count);

  /// Blocks until everything pushed before the call is written and the
  /// stream is flushed.
  void flush_and_wait();

  /// Drains, flushes, closes, and joins the drainer.  Late pushes are
  /// counted as drops.  Idempotent.
  void shutdown();

 private:
  void drain_main(std::stop_token stop);
  /// Moves straggler per-thread buffers into the ring.  Holds each
  /// buffer's mutex across its ring insertion so the owner cannot slip a
  /// newer batch underneath the swept (older) residue.
  void sweep_buffers();

  const TracePolicy policy_;
  const std::size_t capacity_;
  std::ofstream out_;  // drainer-owned after construction

  /// One thread's staged batch in the ring: a blob of newline-terminated
  /// lines plus its event count for capacity/ledger accounting.
  struct EventBatch {
    std::string bytes;
    std::size_t count = 0;
  };

  std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable_any wake_;  // drainer's wait, stop_token-aware
  std::condition_variable flush_cv_;
  std::deque<EventBatch> ring_;
  std::size_t ring_events_ = 0;  // sum of ring_ batch counts
  bool closed_ = false;
  std::uint64_t flush_asked_ = 0;
  std::uint64_t flush_done_ = 0;

  // Last member: the drainer joins (inside shutdown) while everything
  // above is still alive.
  std::jthread drainer_;
};

ThreadEventBuffer::ThreadEventBuffer() {
  // Force the ThreadSink into existence first: thread_locals destroy in
  // reverse construction order, so ~ThreadEventBuffer can still count
  // drops through the counter slots.
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
  if (count == 0) return;
  std::shared_ptr<TraceSink> sink;
  {
    const std::scoped_lock lock(reg.trace_mu);
    sink = reg.sink;
  }
  g_emitted.add(count);
  if (sink != nullptr) {
    sink->push_batch(std::move(bytes), count);
  } else {
    // Emitted but never written: the exiting thread outlived the sink.
    g_dropped.add(count);
  }
}

ThreadEventBuffer& thread_event_buffer() {
  thread_local ThreadEventBuffer buffer;
  return buffer;
}

std::shared_ptr<TraceSink> sink_ref() {
  Registry& reg = registry();
  const std::scoped_lock lock(reg.trace_mu);
  return reg.sink;
}

TraceSink::TraceSink(std::ofstream out, TracePolicy policy,
                     std::size_t capacity)
    : policy_(policy),
      capacity_(capacity == 0 ? kDefaultRingCapacity : capacity),
      out_(std::move(out)),
      drainer_([this](std::stop_token stop) { drain_main(stop); }) {}

void TraceSink::push_batch(std::string&& bytes, std::size_t count) {
  bool dropped = false;
  {
    std::unique_lock lock(mu_);
    if (policy_ == TracePolicy::kBlock && !closed_ &&
        ring_events_ >= capacity_) {
      const auto t0 = std::chrono::steady_clock::now();
      wake_.notify_one();
      not_full_.wait(lock,
                     [&] { return closed_ || ring_events_ < capacity_; });
      g_block_ns.add(ns_since(t0));
    }
    if (closed_ || ring_events_ >= capacity_) {
      dropped = true;
    } else {
      ring_events_ += count;
      ring_.push_back(EventBatch{std::move(bytes), count});
    }
  }
  if (dropped) {
    g_dropped.add(count);
  } else {
    wake_.notify_one();
  }
}

void TraceSink::force_push(std::string&& bytes, std::size_t count) {
  const std::scoped_lock lock(mu_);
  ring_events_ += count;
  ring_.push_back(EventBatch{std::move(bytes), count});
}

void TraceSink::flush_and_wait() {
  std::unique_lock lock(mu_);
  if (closed_) return;
  const std::uint64_t gen = ++flush_asked_;
  wake_.notify_one();
  flush_cv_.wait(lock, [&] { return flush_done_ >= gen || closed_; });
}

void TraceSink::shutdown() {
  {
    const std::scoped_lock lock(mu_);
    if (closed_) return;
    closed_ = true;
  }
  not_full_.notify_all();
  flush_cv_.notify_all();
  drainer_.request_stop();
  wake_.notify_all();
  drainer_.join();  // the drainer's final pass sweeps, drains, flushes
}

void TraceSink::sweep_buffers() {
  Registry& reg = registry();
  const std::scoped_lock buffers_lock(reg.buffers_mu);
  for (ThreadEventBuffer* buffer : reg.event_buffers) {
    const std::scoped_lock buffer_lock(buffer->mu);
    if (buffer->count == 0 ||
        buffer->pushing.load(std::memory_order_acquire)) {
      continue;
    }
    g_emitted.add(buffer->count);
    force_push(std::move(buffer->bytes), buffer->count);
    buffer->bytes.clear();
    buffer->count = 0;
  }
}

void TraceSink::drain_main(std::stop_token stop) {
  std::vector<EventBatch> batch;
  std::uint64_t done = 0;  // drainer-local mirror of flush_done_
  auto last_flush = std::chrono::steady_clock::now();
  for (;;) {
    bool stopping = false;
    bool idle_tick = false;
    std::uint64_t flush_target = 0;
    {
      std::unique_lock lock(mu_);
      const bool woke = wake_.wait_for(lock, stop, kDrainInterval, [&] {
        return !ring_.empty() || flush_asked_ > flush_done_ || closed_;
      });
      idle_tick = !woke;
      stopping = stop.stop_requested() || closed_;
      flush_target = flush_asked_;
    }
    const auto d0 = std::chrono::steady_clock::now();
    if (stopping || idle_tick || flush_target > done) {
      // Catch events idling below the batch threshold in per-thread
      // buffers; skipped while the ring is hot so the sweep's buffer
      // locking stays off the emitters' fast path.
      sweep_buffers();
    }
    {
      const std::scoped_lock lock(mu_);
      while (!ring_.empty()) {
        batch.push_back(std::move(ring_.front()));
        ring_.pop_front();
      }
      ring_events_ = 0;
    }
    not_full_.notify_all();
    if (!batch.empty()) {
      for (const EventBatch& b : batch) {
        out_.write(b.bytes.data(),
                   static_cast<std::streamsize>(b.bytes.size()));
      }
      batch.clear();
      g_batches.add();
      g_drain_ns.add(ns_since(d0));
    }
    const bool flush_now =
        stopping || flush_target > done ||
        std::chrono::steady_clock::now() - last_flush >= kDrainInterval;
    if (flush_now) {
      const auto f0 = std::chrono::steady_clock::now();
      out_.flush();
      g_flush_ns.add(ns_since(f0));
      last_flush = f0;
      {
        const std::scoped_lock lock(mu_);
        if (stopping) flush_target = flush_asked_;  // release every waiter
        flush_done_ = std::max(flush_done_, flush_target);
        done = flush_done_;
      }
      flush_cv_.notify_all();
    }
    if (stopping) {
      // Its thread-local ThreadSink folds as this jthread exits, so the
      // drain/flush meters above land in the registry before join()
      // returns.
      return;
    }
  }
}

TracePolicy policy_from_env() noexcept {
  const char* raw = std::getenv("CCMX_TRACE_POLICY");
  if (raw == nullptr) return TracePolicy::kBlock;
  const std::string_view v(raw);
  if (v == "drop") return TracePolicy::kDrop;
  return TracePolicy::kBlock;
}

std::size_t capacity_from_env() noexcept {
  if (const char* raw = std::getenv("CCMX_TRACE_BUFFER")) {
    const unsigned long long v = std::strtoull(raw, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 0;  // pick the default
}

/// Opens the sink; reg.trace_mu must be held by the caller.  On failure
/// counts obs.trace.open_failed and reports to stderr once per process.
bool open_trace_sink_locked(Registry& reg, const TraceSinkOptions& options) {
  std::ofstream out(options.path, std::ios::app);
  if (!out.is_open()) {
    g_open_failed.add();
    if (!reg.open_failure_reported) {
      reg.open_failure_reported = true;
      std::fprintf(stderr,
                   "ccmx: cannot open trace file '%s': trace events will be "
                   "dropped (see obs.trace.open_failed)\n",
                   options.path.c_str());
    }
    g_sink_mode.store(kSinkNone, std::memory_order_release);
    return false;
  }
  reg.sink = std::make_shared<TraceSink>(std::move(out), options.policy,
                                         options.capacity);
  g_sink_mode.store(kSinkAsync, std::memory_order_release);
  return true;
}

/// Lazily opens the environment-configured sink (CCMX_TRACE_FILE +
/// CCMX_TRACE_POLICY + CCMX_TRACE_BUFFER) the first time anything asks.
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
  TraceSinkOptions options;
  options.path = path;
  options.policy = policy_from_env();
  options.capacity = capacity_from_env();
  (void)open_trace_sink_locked(reg, options);
}

/// Moves this thread's buffered lines into the ring (backpressure policy
/// applies) without waiting for the write.
void publish_thread_buffer() {
  if (g_sink_mode.load(std::memory_order_acquire) != kSinkAsync) return;
  ThreadEventBuffer& buffer = thread_event_buffer();
  std::string batch;
  std::size_t count = 0;
  {
    const std::scoped_lock lock(buffer.mu);
    if (buffer.count == 0) return;
    batch = std::move(buffer.bytes);
    count = buffer.count;
    buffer.bytes.clear();
    buffer.count = 0;
    buffer.pushing.store(true, std::memory_order_release);
  }
  g_emitted.add(count);
  if (const std::shared_ptr<TraceSink> sink = sink_ref()) {
    sink->push_batch(std::move(batch), count);
  } else {
    g_dropped.add(count);
  }
  buffer.pushing.store(false, std::memory_order_release);
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

bool env_truthy(const char* name) noexcept {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return false;
  const std::string_view v(raw);
  return v != "0" && v != "false" && v != "off" && v != "no";
}

std::atomic<bool>& enabled_flag() noexcept {
  static std::atomic<bool> flag{env_truthy("CCMX_TRACE") ||
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

bool event_sink_open() noexcept {
  std::uint8_t mode = g_sink_mode.load(std::memory_order_acquire);
  if (mode == kSinkUnknown) {
    probe_env_sink();
    mode = g_sink_mode.load(std::memory_order_acquire);
  }
  return mode == kSinkAsync;
}

void emit_event(std::string_view json_object) {
  std::uint8_t mode = g_sink_mode.load(std::memory_order_acquire);
  if (mode == kSinkUnknown) {
    probe_env_sink();
    mode = g_sink_mode.load(std::memory_order_acquire);
  }
  if (mode != kSinkAsync) return;
  // Sampled self-metering: one emit in kMeterPeriod per thread pays the
  // two clock reads, scaled back up, so obs.overhead.emit_ns stays an
  // unbiased estimate without the clocks dominating the fast path.
  thread_local std::uint32_t meter_tick = 0;
  const bool metered = (meter_tick++ % kMeterPeriod) == 0;
  const auto t0 = metered ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};
  ThreadEventBuffer& buffer = thread_event_buffer();
  std::string batch;
  std::size_t count = 0;
  {
    const std::scoped_lock lock(buffer.mu);
    buffer.bytes.append(json_object);
    buffer.bytes.push_back('\n');
    ++buffer.count;
    if (buffer.count >= kEmitBatch) {
      batch = std::move(buffer.bytes);
      count = buffer.count;
      buffer.bytes.clear();
      buffer.bytes.reserve(batch.size());  // one alloc per batch, not ~log n
      buffer.count = 0;
      buffer.pushing.store(true, std::memory_order_release);
    }
  }
  if (count > 0) {
    g_emitted.add(count);
    if (const std::shared_ptr<TraceSink> sink = sink_ref()) {
      sink->push_batch(std::move(batch), count);
    } else {
      g_dropped.add(count);
    }
    buffer.pushing.store(false, std::memory_order_release);
  }
  if (metered) g_emit_ns.add(ns_since(t0) * kMeterPeriod);
}

bool open_trace_sink(const TraceSinkOptions& options) {
  close_trace_sink();
  Registry& reg = registry();
  // Clear (and account) residue an emitter buffered after the previous
  // sink closed: those lines will never be written and must not leak
  // into the new sink's file.  They never reached the ledger (emitted is
  // counted at batch move-out), so book both sides here to keep the loss
  // visible and the ledger balanced.
  std::size_t stale = 0;
  {
    const std::scoped_lock lock(reg.buffers_mu);
    for (ThreadEventBuffer* buffer : reg.event_buffers) {
      const std::scoped_lock buffer_lock(buffer->mu);
      stale += buffer->count;
      buffer->bytes.clear();
      buffer->count = 0;
    }
  }
  if (stale > 0) {
    g_emitted.add(stale);
    g_dropped.add(stale);
  }
  const std::scoped_lock lock(reg.trace_mu);
  reg.env_probed = true;  // an explicit open overrides the environment
  return open_trace_sink_locked(reg, options);
}

void flush_trace_sink() {
  publish_thread_buffer();
  if (const std::shared_ptr<TraceSink> sink = sink_ref()) {
    sink->flush_and_wait();
  }
}

void close_trace_sink() {
  Registry& reg = registry();
  std::shared_ptr<TraceSink> sink;
  {
    const std::scoped_lock lock(reg.trace_mu);
    sink = std::move(reg.sink);
    reg.sink.reset();
    reg.env_probed = true;  // closed stays closed; no lazy re-open
    g_sink_mode.store(kSinkNone, std::memory_order_release);
  }
  if (sink != nullptr) sink->shutdown();
}

bool trace_truncated() {
  return g_dropped.value() > 0 || g_open_failed.value() > 0;
}

void flush_thread() {
  publish_thread_buffer();
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
