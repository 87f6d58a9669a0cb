#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "util/env.hpp"
#include "util/timer.hpp"

namespace ccmx::util {

namespace {

/// Upper bound on the parallel degree — indexes fixed-size per-call slot
/// arrays, and anything past this is oversubscription, not speedup.
constexpr std::size_t kMaxDegree = 256;

/// Target chunks per participant: enough that a slow chunk rebalances onto
/// idle workers, few enough that the type-erased chunk dispatch amortizes.
constexpr std::size_t kChunksPerWorker = 8;

std::atomic<std::size_t>& degree_override() noexcept {
  static std::atomic<std::size_t> value{0};
  return value;
}

}  // namespace

std::size_t hardware_parallelism() noexcept {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

std::size_t parallelism() noexcept {
  const std::size_t forced = degree_override().load(std::memory_order_relaxed);
  if (forced != 0) return forced;
  static const auto from_env = static_cast<std::size_t>(env_int(
      "CCMX_THREADS", 1, kMaxDegree,
      static_cast<std::int64_t>(std::min(hardware_parallelism(), kMaxDegree))));
  return from_env;
}

void set_parallelism(std::size_t degree) noexcept {
  degree_override().store(std::min(degree, kMaxDegree),
                          std::memory_order_relaxed);
}

namespace detail {

namespace {

// Shard instrumentation: per-participant busy seconds plus the imbalance
// ratio max/mean — 1.0 means perfectly even load, 2x means the slowest
// participant dominated.  Recorded once per parallel_shards call, so the
// histogram mutex is cold.
const obs::Counter g_invocations("parallel.invocations");
const obs::Counter g_items("parallel.items");
const obs::Histogram g_shard_seconds("parallel.shard_seconds");
const obs::Histogram g_imbalance("parallel.imbalance");

void record_shards(const std::vector<double>& busy_secs, std::size_t count) {
  g_invocations.add();
  g_items.add(count);
  double max_secs = 0.0;
  double sum_secs = 0.0;
  std::size_t participants = 0;
  for (const double secs : busy_secs) {
    if (secs <= 0.0) continue;  // slot never won a chunk
    g_shard_seconds.record(secs);
    max_secs = std::max(max_secs, secs);
    sum_secs += secs;
    ++participants;
  }
  if (participants > 0 && sum_secs > 0.0) {
    const double mean = sum_secs / static_cast<double>(participants);
    g_imbalance.record(max_secs / mean);
  }
}

/// True while this thread is executing inside a parallel region (as the
/// caller or as a pool worker running a chunk).  A parallel_for issued from
/// such a thread runs serially inline instead of re-entering the pool.
thread_local bool t_in_parallel_region = false;

struct RegionGuard {
  RegionGuard() noexcept { t_in_parallel_region = true; }
  ~RegionGuard() noexcept { t_in_parallel_region = false; }
  RegionGuard(const RegionGuard&) = delete;
  RegionGuard& operator=(const RegionGuard&) = delete;
};

/// One parallel_shards invocation: a chunk cursor shared by the caller
/// (slot 0) and the participating pool workers (slots 1..slots-1).
/// Heap-allocated and shared so a worker that wakes after the call already
/// returned still touches live memory.
struct Job {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t chunk = 1;
  std::size_t slots = 1;
  bool traced = false;
  const std::function<void(std::size_t, std::size_t, std::size_t)>* body =
      nullptr;
  std::atomic<std::size_t> cursor{0};
  /// Items whose chunk has fully completed (body returned or threw).  The
  /// release fetch_sub that zeroes it publishes busy_secs and error to the
  /// caller's acquire load.
  std::atomic<std::size_t> remaining{0};
  std::mutex error_mu;
  std::exception_ptr error;
  std::vector<double> busy_secs;  // per slot; written only by that slot
};

class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  /// Claims the pool for one job; false means some other thread holds it
  /// (the caller should fall back to a serial loop).
  [[nodiscard]] bool try_acquire() noexcept {
    return !busy_.exchange(true, std::memory_order_acquire);
  }

  void release() noexcept { busy_.store(false, std::memory_order_release); }

  /// Publishes the job, participates as slot 0, and blocks until every
  /// chunk completed.  Requires a successful try_acquire().
  void run(const std::shared_ptr<Job>& job) {
    {
      const std::scoped_lock lock(mu_);
      ensure_workers(job->slots - 1);
      job_ = job;
      ++generation_;
    }
    cv_.notify_all();
    participate(*job, 0);
    {
      std::unique_lock lock(mu_);
      done_cv_.wait(lock, [&] {
        return job->remaining.load(std::memory_order_acquire) == 0;
      });
      job_.reset();
    }
  }

 private:
  Pool() = default;

  void ensure_workers(std::size_t wanted) {
    while (threads_.size() < wanted) {
      const std::size_t index = threads_.size();
      threads_.emplace_back(
          [this, index](std::stop_token stop) { worker_main(index, stop); });
    }
  }

  void worker_main(std::size_t index, std::stop_token stop) {
    // Register with the sampling profiler before any work: records this
    // thread's stack bounds and CPU clock so SIGPROF samples land in its
    // ring (a no-op when profiling is off or compiled out).
    obs::profiler_register_thread();
    std::uint64_t seen_generation = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock lock(mu_);
        const bool live = cv_.wait(lock, stop, [&] {
          return generation_ != seen_generation && job_ != nullptr;
        });
        if (!live) return;  // stop requested
        seen_generation = generation_;
        job = job_;
      }
      if (index + 1 < job->slots) {
        participate(*job, index + 1);
        // Fold counters and write buffered trace events before parking:
        // a worker may idle across many jobs (or forever).  The trace
        // file outlives this pool (the obs registry is built during
        // static initialisation), so the write is safe even at shutdown.
        obs::flush_thread();
      }
    }
  }

  void participate(Job& job, std::size_t slot) {
    const RegionGuard region;
    double busy = 0.0;
    for (;;) {
      const std::size_t lo =
          job.cursor.fetch_add(job.chunk, std::memory_order_relaxed);
      if (lo >= job.end) break;
      const std::size_t hi = std::min(job.end, lo + job.chunk);
      const WallTimer timer;
      try {
        (*job.body)(slot, lo, hi);
      } catch (...) {
        const std::scoped_lock lock(job.error_mu);
        if (!job.error) job.error = std::current_exception();
      }
      if (job.traced) {
        busy += timer.seconds();
        job.busy_secs[slot] = busy;  // published by the fetch_sub below
      }
      const std::size_t items = hi - lo;
      if (job.remaining.fetch_sub(items, std::memory_order_acq_rel) ==
          items) {
        const std::scoped_lock lock(mu_);
        done_cv_.notify_all();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable_any cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Job> job_;
  std::uint64_t generation_ = 0;
  std::atomic<bool> busy_{false};
  // Last member: jthread destructors request stop and join while the
  // condition variables above are still alive.
  std::vector<std::jthread> threads_;
};

}  // namespace

void parallel_shards(std::size_t begin, std::size_t end,
                     const std::function<void(std::size_t, std::size_t,
                                              std::size_t)>& shard_body) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  const std::size_t degree = std::min(parallelism(), count);
  const bool traced = obs::enabled();

  const auto run_serial = [&] {
    const RegionGuard region;
    if (traced) {
      const WallTimer timer;
      shard_body(0, begin, end);
      record_shards({timer.seconds()}, count);
    } else {
      shard_body(0, begin, end);
    }
  };

  Pool& pool = Pool::instance();
  if (degree <= 1 || t_in_parallel_region || !pool.try_acquire()) {
    // Degree 1, a nested call from inside a parallel body, or a concurrent
    // call while another thread holds the pool: serialize safely inline.
    run_serial();
    return;
  }

  auto job = std::make_shared<Job>();
  job->begin = begin;
  job->end = end;
  job->chunk = std::max<std::size_t>(1, count / (degree * kChunksPerWorker));
  job->slots = degree;
  job->traced = traced;
  job->body = &shard_body;
  job->cursor.store(begin, std::memory_order_relaxed);
  job->remaining.store(count, std::memory_order_relaxed);
  job->busy_secs.assign(degree, 0.0);

  pool.run(job);
  pool.release();
  if (traced) record_shards(job->busy_secs, count);
  if (job->error) std::rethrow_exception(job->error);
}

}  // namespace detail

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body) {
  detail::parallel_shards(begin, end,
                          [&](std::size_t, std::size_t lo, std::size_t hi) {
                            for (std::size_t i = lo; i < hi; ++i) body(i);
                          });
}

}  // namespace ccmx::util
