// sweep_digits — index-sharded, delta-evaluated odometer sweeps.
//
// The census engines enumerate every base-q digit vector of a fixed width
// (q^digits assignments).  Flat index i maps to the little-endian base-q
// numeral dv with dv[d] = (i / q^d) % q, so the space shards over the
// worker pool by index ranges: each chunk decodes its first index into an
// odometer state ONCE, then advances incrementally, telling the caller
// exactly which digit changed at each step.  A caller that maintains a
// linear functional of the digits (the censuses' interval shift) updates it
// in O(changed digits) — amortized O(1) per step, since a base-q odometer
// changes q/(q-1) digits per increment on average — instead of re-running
// the full evaluation.
//
// Callbacks (all invoked with the per-worker state; workers never share
// state, so none of them needs synchronization):
//   make_state()                 -> State   once per participating worker
//   reset(state, dv)                        chunk start, dv freshly decoded
//   delta(state, pos, old, neu)             digit dv[pos] changed old -> neu
//   visit(state, dv)                        once per index, dv is current
//   chunk_end(state, items)                 chunk done (batch progress here)
//
// Returns the states of every worker that participated (order unspecified);
// fold them with a commutative combine.  Exact accumulators (integers,
// BigInt) therefore produce bit-identical totals for every parallel degree.
#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/narrow.hpp"
#include "util/parallel.hpp"
#include "util/require.hpp"

namespace ccmx::util {

/// q^digits if it is at most budget, else nullopt: decided in integers,
/// without overflow.  The census engines sweep exhaustively iff it fits.
[[nodiscard]] inline std::optional<std::uint64_t> digit_space_within(
    std::uint64_t q, std::size_t digits, std::uint64_t budget) {
  CCMX_REQUIRE(q >= 1, "digit base must be at least 1");
  std::uint64_t space = 1;
  for (std::size_t d = 0; d < digits; ++d) {
    if (space > budget / q) return std::nullopt;  // space * q > budget
    space *= q;
  }
  return space <= budget ? std::optional(space) : std::nullopt;
}

/// q^digits as std::uint64_t; throws if the space does not fit.
[[nodiscard]] inline std::uint64_t digit_space_size(std::uint64_t q,
                                                    std::size_t digits) {
  const auto space = digit_space_within(q, digits, ~std::uint64_t{0});
  CCMX_REQUIRE(space.has_value(),
               "q^digits overflows 64 bits; use a sampled sweep");
  return *space;
}

template <class MakeState, class Reset, class Delta, class Visit,
          class ChunkEnd>
auto sweep_digits(std::uint64_t q, std::size_t digits, MakeState&& make_state,
                  Reset&& reset, Delta&& delta, Visit&& visit,
                  ChunkEnd&& chunk_end)
    -> std::vector<std::decay_t<decltype(make_state())>> {
  using State = std::decay_t<decltype(make_state())>;
  const std::uint64_t space = digit_space_size(q, digits);

  // Each chunk's odometer, written on every index like the state, is
  // allocated by the worker running it (see detail::WorkerSlot).
  std::vector<detail::WorkerSlot<State>> slots(parallelism());

  detail::parallel_shards(
      0, space, [&](std::size_t w, std::size_t lo, std::size_t hi) {
        State& state = slots[w].get(make_state);
        std::vector<std::uint32_t> dv(digits);
        std::uint64_t rest = lo;
        for (std::size_t d = 0; d < digits; ++d) {
          dv[d] = narrow_cast<std::uint32_t>(rest % q);
          rest /= q;
        }
        reset(state, dv);
        for (std::uint64_t i = lo;;) {
          visit(state, dv);
          if (++i == hi) break;
          // Odometer increment; hi <= q^digits bounds the carry chain.
          for (std::size_t pos = 0;; ++pos) {
            const std::uint32_t old = dv[pos];
            if (old + 1 < q) {
              dv[pos] = old + 1;
              delta(state, pos, old, old + 1);
              break;
            }
            dv[pos] = 0;
            delta(state, pos, old, 0);
          }
        }
        chunk_end(state, hi - lo);
      });

  std::vector<State> out;
  for (auto& slot : slots) {
    if (slot.state) out.push_back(std::move(*slot.state));
  }
  return out;
}

}  // namespace ccmx::util
