// Shared-memory parallel loops over index ranges.
//
// The enumeration sweeps (truth-matrix censuses, rectangle searches, protocol
// error estimation) are embarrassingly parallel over independent indices, so
// the primitives are a parallel_for plus a tree-free parallel_reduce — the
// OpenMP "parallel for / reduction" idiom.  Since PR 5 the implementation is
// a lazily-initialized *persistent* worker pool (workers are spawned once and
// parked on a condition variable between calls) with chunked dynamic
// scheduling: callers and workers pull chunks off a shared atomic cursor, so
// uneven per-index costs balance automatically and a call costs two
// notifications instead of a thread spawn+join per invocation.
//
// Degree: `parallelism()` — CCMX_THREADS env override, then
// set_parallelism(), then hardware_concurrency().  Degree 1 (or an index
// count of 1) degenerates to a plain serial loop with no synchronization.
// Nested parallel_for calls, and concurrent calls from two threads, are safe:
// the inner/later call runs serially inline on its calling thread instead of
// deadlocking on the shared pool.  Exceptions thrown by bodies are caught per
// chunk and the first one observed is rethrown on the calling thread after
// every chunk completed.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace ccmx::util {

/// Number of hardware threads (>= 1); the default parallel degree.
[[nodiscard]] std::size_t hardware_parallelism() noexcept;

/// Effective parallel degree (>= 1): the set_parallelism() override if one
/// is active, else the CCMX_THREADS environment value (read once; an
/// integer in [1, 256]), else hardware_parallelism() capped at 256.  May
/// exceed the hardware count (useful for determinism tests on small
/// hosts).
[[nodiscard]] std::size_t parallelism() noexcept;

/// Runtime override of the parallel degree; 0 restores the env/hardware
/// default.  Values are clamped to a sane maximum (256).  Not meant to be
/// called concurrently with running parallel loops.
void set_parallelism(std::size_t degree) noexcept;

/// Calls body(i) for every i in [begin, end), sharded dynamically over the
/// persistent worker pool.  body must be safe to call concurrently for
/// distinct indices.  Exceptions thrown by body are propagated (the first
/// one observed).
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

/// Like parallel_for but each worker owns an accumulator, created by
/// make_acc() on the worker's own thread when it takes its first chunk (so
/// make_acc must be safe to call concurrently); combine() folds the
/// accumulators of the participating workers into a fresh make_acc()
/// serially at the end and returns the total.  Each accumulator is handed
/// to combine as an rvalue, so a combine may take its buffers instead of
/// copying them.  A worker's accumulator may receive several disjoint index
/// chunks (dynamic scheduling), so the fold is only order-deterministic for
/// commutative-associative combines.
template <class Acc>
Acc parallel_reduce(std::size_t begin, std::size_t end,
                    const std::function<Acc()>& make_acc,
                    const std::function<void(Acc&, std::size_t)>& body,
                    const std::function<void(Acc&, Acc&&)>& combine);

// --- implementation ---

namespace detail {
/// Runs shard_body(slot, lo, hi) over a chunked partition of [begin, end).
/// slot < parallelism() is stable per participating thread within one call
/// (slot 0 is the caller), but one slot may receive many chunks.
void parallel_shards(std::size_t begin, std::size_t end,
                     const std::function<void(std::size_t, std::size_t,
                                              std::size_t)>& shard_body);

/// One worker's state in a per-call slot array.  Workers write their state
/// on every index, so each slot gets cache lines of its own, and the state
/// (with whatever it allocates) is made by the worker that first takes the
/// slot: the states of two workers sharing a line would make the cores
/// trade it back and forth (false sharing), at a cost that depends on
/// where the heap happened to place them.
template <class State>
struct alignas(64) WorkerSlot {
  std::optional<State> state;

  template <class Make>
  State& get(Make&& make) {
    if (!state) state.emplace(make());
    return *state;
  }
};
}  // namespace detail

template <class Acc>
Acc parallel_reduce(std::size_t begin, std::size_t end,
                    const std::function<Acc()>& make_acc,
                    const std::function<void(Acc&, std::size_t)>& body,
                    const std::function<void(Acc&, Acc&&)>& combine) {
  std::vector<detail::WorkerSlot<Acc>> slots(parallelism());
  detail::parallel_shards(
      begin, end, [&](std::size_t slot, std::size_t lo, std::size_t hi) {
        Acc& acc = slots[slot].get(make_acc);
        for (std::size_t i = lo; i < hi; ++i) body(acc, i);
      });
  Acc total = make_acc();
  for (auto& slot : slots) {
    if (slot.state) combine(total, std::move(*slot.state));
  }
  return total;
}

}  // namespace ccmx::util
