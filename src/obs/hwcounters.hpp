// Process-total hardware counters.
//
// Hardware counters appear in one place: the run report's "hw" block.
// bench_main and ccmx_cli probe at startup, so the counters run from
// before any work, and the report writer reads the process totals once
// at exit.  Nothing gates on them: the perf gate compares cpu time and
// the exact table counters (`ccmx_insight diff`), which every host can
// measure, while perf_event_open often cannot run at all (containers
// and VMs without a PMU).  The block still says which case a run was in.
//
// The counter set is fixed: instructions, cycles, cache-references,
// cache-misses, branches, branch-misses (PERF_TYPE_HARDWARE) plus
// task-clock (PERF_TYPE_SOFTWARE), each opened as its own perf fd with
// inherit=1 so threads spawned later (the worker pool) are included —
// PERF_FORMAT_GROUP and inherit do not combine, which is why there is no
// counter *group* fd.  Counts are scaled by time_enabled/time_running, so
// they stay meaningful when the PMU multiplexes.
//
// Graceful degradation is a first-class mode, not an error: EPERM/EACCES
// (perf_event_paranoid too strict), ENOSYS/ENOENT (no PMU), and
// non-Linux builds all yield hw_available()==false with a once-per-probe
// stderr diagnostic, and the report renders {"available": false,
// "reason": ...} instead of zeros.
//
// Defining CCMX_OBS_DISABLED (CMake CCMX_OBS=OFF) compiles all of this
// down to inline no-ops, like the rest of the obs layer.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace ccmx::obs {

/// Process totals of the fixed hardware-counter set.  A plain value type
/// in every build mode; `available` is false when the numbers mean
/// nothing (counters degraded or never opened) and consumers must render
/// "unavailable", never the zeros.
struct HwCounters {
  bool available = false;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t cache_references = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branches = 0;
  std::uint64_t branch_misses = 0;
  std::uint64_t task_clock_ns = 0;

  /// Instructions per cycle; 0 when unavailable or no cycles elapsed.
  [[nodiscard]] double ipc() const noexcept {
    return available && cycles > 0
               ? static_cast<double>(instructions) / static_cast<double>(cycles)
               : 0.0;
  }
  /// cache_misses / cache_references; 0 when unavailable or unreferenced.
  [[nodiscard]] double cache_miss_rate() const noexcept {
    return available && cache_references > 0
               ? static_cast<double>(cache_misses) /
                     static_cast<double>(cache_references)
               : 0.0;
  }
};

#ifndef CCMX_OBS_DISABLED

/// True when the perf counter set is open and counting.  The first call
/// probes: opens the fds (instructions and cycles are required, the rest
/// optional — some hypervisors expose only a partial PMU), and on
/// failure reports the reason to stderr once and latches unavailable for
/// the rest of the process.
[[nodiscard]] bool hw_available() noexcept;

/// Human-readable reason counters are unavailable ("" when available):
/// "perf_event_open failed: ENOENT (event not supported by this PMU)",
/// "perf_event_open requires Linux", ...
[[nodiscard]] std::string hw_unavailable_reason();

/// Current counter totals since the probe opened the fds (multiplex
/// scaled).  available=false snapshot when degraded.
[[nodiscard]] HwCounters hw_read() noexcept;

/// Test hooks.  hw_reset_for_testing() closes the fds and forgets the
/// probe result so the next hw_available() probes again;
/// hw_force_unavailable_for_testing() latches the degraded mode with a
/// given reason (simulating EPERM without needing a locked-down kernel).
void hw_reset_for_testing() noexcept;
void hw_force_unavailable_for_testing(std::string_view reason);

#else  // CCMX_OBS_DISABLED: inline no-ops, like the rest of the layer.

[[nodiscard]] inline bool hw_available() noexcept { return false; }
[[nodiscard]] inline std::string hw_unavailable_reason() {
  return "observability compiled out (CCMX_OBS=OFF)";
}
[[nodiscard]] inline HwCounters hw_read() noexcept { return {}; }

inline void hw_reset_for_testing() noexcept {}
inline void hw_force_unavailable_for_testing(std::string_view) {}

#endif  // CCMX_OBS_DISABLED

}  // namespace ccmx::obs
