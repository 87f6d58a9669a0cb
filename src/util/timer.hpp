// Wall-clock + process-CPU timing helper for the experiment harness.
//
// Wall and CPU seconds diverge under the parallel sweeps (CPU seconds sum
// across workers), so run reports carry both.
#pragma once

#include <chrono>
#include <ctime>

namespace ccmx::util {

class WallTimer {
 public:
  WallTimer() : start_(clock::now()), cpu_start_(cpu_now()) {}

  void reset() {
    start_ = clock::now();
    cpu_start_ = cpu_now();
  }

  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  /// Process CPU seconds (all threads) since construction/reset.
  [[nodiscard]] double cpu_seconds() const { return cpu_now() - cpu_start_; }

  /// Absolute process CPU seconds; falls back to std::clock where the
  /// POSIX per-process clock is unavailable.
  [[nodiscard]] static double cpu_now() noexcept {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
    timespec ts{};
    if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0) {
      return static_cast<double>(ts.tv_sec) +
             static_cast<double>(ts.tv_nsec) * 1e-9;
    }
#endif
    return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
  double cpu_start_;
};

}  // namespace ccmx::util
