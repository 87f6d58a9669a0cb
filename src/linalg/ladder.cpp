#include "linalg/ladder.hpp"

#include <algorithm>
#include <vector>

#include "bigint/modular.hpp"

namespace ccmx::la {

namespace {

/// The largest prime below the ladder (2^61 - 1, a Mersenne prime).
constexpr std::uint64_t kBelowLadder = (std::uint64_t{1} << 61) - 1;
constexpr std::size_t kCachedRungs = 64;

std::uint64_t scan_next_rung(std::uint64_t previous) {
  return num::next_prime(std::max(previous, kBelowLadder) + 2);
}

/// The first rungs, scanned once per process: the Miller-Rabin scan for one
/// rung costs more than eliminating a small matrix modulo it, and a
/// full-rank input needs only the first rung.
const std::vector<std::uint64_t>& first_rungs() {
  static const std::vector<std::uint64_t> rungs = [] {
    std::vector<std::uint64_t> out{scan_next_rung(0)};
    while (out.size() < kCachedRungs) out.push_back(scan_next_rung(out.back()));
    return out;
  }();
  return rungs;
}

}  // namespace

std::uint64_t next_ladder_prime(std::uint64_t previous) {
  const std::vector<std::uint64_t>& rungs = first_rungs();
  const auto it = std::upper_bound(rungs.begin(), rungs.end(), previous);
  return it != rungs.end() ? *it : scan_next_rung(previous);
}

}  // namespace ccmx::la
