// The prime ladder and the Chinese-remainder fold shared by the modular
// engines: the exact rank engine (rank / is_singular), det_crt and
// solve_crt.
//
// The ladder is the increasing sequence of primes above 2^61, a fixed
// public list, so every modular answer and its cost repeat run to run.
// Each rung is a 62-bit prime, so any j distinct rungs multiply to more
// than 2^{61 j}: that is how the engines size their prime pools.
#pragma once

#include <cstddef>
#include <cstdint>

#include "bigint/bigint.hpp"

namespace ccmx::la {

/// Bits each ladder prime is guaranteed to add to a product of rungs.
inline constexpr std::size_t kLadderPrimeBits = 61;

/// The rung after `previous`, which is 0 (giving the first rung) or a rung.
/// The first rungs come from a table built on first use.
[[nodiscard]] std::uint64_t next_ladder_prime(std::uint64_t previous);

/// Incremental CRT over distinct primes below 2^62, such as the rungs:
/// after add(r_i, p_i), value() is the unique x in [0, modulus()) with
/// x ≡ r_i (mod p_i) for every i, and modulus() = prod p_i.
class CrtFold {
 public:
  void add(std::uint64_t residue, std::uint64_t p);

  [[nodiscard]] const num::BigInt& value() const noexcept { return value_; }
  [[nodiscard]] const num::BigInt& modulus() const noexcept {
    return modulus_;
  }
  /// value() mapped into (-modulus/2, modulus/2], for signed results.
  [[nodiscard]] num::BigInt symmetric() const;

 private:
  num::BigInt value_{0};
  num::BigInt modulus_{1};
};

}  // namespace ccmx::la
