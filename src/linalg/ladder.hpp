// The prime ladder of the exact decision engine (rank / is_singular /
// solvable): it eliminates modulo the rungs in order, and lifts kernel
// vectors (linalg/lift.hpp) modulo the first.
//
// The ladder is the increasing sequence of primes above 2^61, a fixed
// public list, so every modular answer and its cost repeat run to run.
// Each rung is a 62-bit prime, so any j distinct rungs multiply to more
// than 2^{61 j}: that is how the stop rule and the lifting's step cap
// count primes.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ccmx::la {

/// Bits each ladder prime is guaranteed to add to a product of rungs.
inline constexpr std::size_t kLadderPrimeBits = 61;

/// The rung after `previous`, which is 0 (giving the first rung) or a rung.
/// The first rungs come from a table built on first use.
[[nodiscard]] std::uint64_t next_ladder_prime(std::uint64_t previous);

}  // namespace ccmx::la
