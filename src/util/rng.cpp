#include "util/rng.hpp"

#include <algorithm>
#include <numeric>

namespace ccmx::util {

std::vector<std::size_t> sample_without_replacement(std::size_t universe,
                                                    std::size_t size,
                                                    Xoshiro256& rng) {
  CCMX_REQUIRE(size <= universe, "sample larger than universe");
  // Floyd's algorithm: one draw per element, membership from a bitmap of
  // the universe, so O(universe / 64 + size log size) overall.
  std::vector<std::size_t> chosen;
  chosen.reserve(size);
  std::vector<bool> seen(universe, false);
  for (std::size_t j = universe - size; j < universe; ++j) {
    const std::size_t t = rng.below(j + 1);
    // j itself cannot be taken yet: every earlier pick is below it.
    const std::size_t pick = seen[t] ? j : t;
    seen[pick] = true;
    chosen.push_back(pick);
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

std::vector<std::size_t> random_permutation(std::size_t n, Xoshiro256& rng) {
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.below(i)]);
  }
  return perm;
}

}  // namespace ccmx::util
