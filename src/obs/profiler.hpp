// In-process sampling CPU profiler with signal-safe stack capture.
//
// Why: hardware counters (obs/hwcounters.hpp) say *how much* work a run
// did and the span forest says how long each annotated region took, but
// neither can point at an unannotated BigInt inner loop or a pool
// scheduling hotspot.  A statistical profiler closes that gap: a POSIX
// interval timer delivers SIGPROF on the running thread, an
// async-signal-safe handler walks the frame-pointer chain and records
// the program-counter stack plus the enclosing span id into a per-thread
// lock-free ring, and a background std::jthread drainer symbolizes the
// addresses offline — /proc/self/maps
// snapshot + dladdr, never in signal context — and appends
// ccmx.profile/1 JSONL rows.
//
// Sampling mechanism: one CLOCK_THREAD_CPUTIME_ID timer per registered
// thread (timer_create + SIGEV_THREAD_ID), so each thread is sampled in
// proportion to the CPU it actually burns and idle threads are silent.
// Where per-thread timers are unavailable the profiler falls back to a
// process-wide setitimer(ITIMER_PROF), which the kernel delivers to
// whichever thread is running — coarser, still statistically sound.
//
// Signal-safety invariants (enforced by ccmx_lint rule R7 on the
// `// ccmx-lint: signal-context` regions in profiler.cpp): the handler
// touches only pre-allocated memory and relaxed/acq-rel atomics — no
// allocation, no locks, no stdio, no std::string.  Everything that
// needs any of those (symbolization, JSON rendering, file IO) runs on
// the drainer thread.
//
// Conservation ledger, mirroring the trace pipeline's: every handler
// invocation on an armed thread increments `captured`; the sample is
// either written to the file (`written`) or dropped because the ring
// was full (`dropped`), so captured == written + dropped at stop().
// `truncated` counts frames cut at the per-sample depth cap (informational;
// those samples still count as written).
//
// Graceful degradation is a first-class mode, per the hwcounters
// convention: no frame pointers (start() self-checks a known call
// chain), SIGPROF already owned by someone else, no usable timer API,
// unopenable output file, and CCMX_OBS=OFF builds all yield
// profiler_start()==false with a human-readable reason from
// profiler_unavailable_reason() — consumers render the reason, never
// fake zeros.
#pragma once

#include <cstdint>
#include <string>

namespace ccmx::obs {

/// Explicit profiler configuration (CLIs and tests; normal runs
/// configure through CCMX_PROF_HZ / CCMX_PROF_FILE instead).
struct ProfilerOptions {
  /// JSONL output path (ccmx.profile/1), opened for truncation.
  std::string path;
  /// Samples per second of *CPU time* per thread; clamped to [1, 10000].
  unsigned hz = 97;
  /// Per-thread ring capacity in samples (test seam: a tiny ring plus a
  /// long drain interval forces overflow so the ledger path is testable).
  std::uint32_t ring_capacity = 512;
  /// Milliseconds between drainer sweeps; clamped to [1, 10000].
  std::int64_t drain_interval_ms = 100;
};

/// Final (or in-flight) conservation ledger.  captured == written +
/// dropped once the profiler has stopped and the rings are drained.
struct ProfilerLedger {
  std::uint64_t captured = 0;  ///< handler invocations on armed threads
  std::uint64_t written = 0;   ///< sample rows appended to the file
  std::uint64_t dropped = 0;   ///< samples lost to ring overflow
  std::uint64_t truncated = 0; ///< samples whose stack hit the depth cap
  std::uint64_t threads = 0;   ///< threads that were armed for sampling
  /// Process CPU time from arming the timers to disarming them, the time
  /// the samples cover; set by profiler_stop() (0 before it).  captured
  /// per CPU second is the rate the timers delivered.
  std::uint64_t cpu_ns = 0;
  /// True when per-thread CLOCK_THREAD_CPUTIME_ID timers drove the
  /// sampling; false when the setitimer(ITIMER_PROF) fallback did.
  bool thread_timers = false;
};

#ifndef CCMX_OBS_DISABLED

/// Starts sampling every registered thread (and the calling thread) at
/// options.hz, writing ccmx.profile/1 JSONL to options.path.  False —
/// with the reason latched for profiler_unavailable_reason() and a
/// one-line stderr diagnostic — when the profiler is already running,
/// the file cannot be opened, SIGPROF is already owned, the
/// frame-pointer self-check fails, or no timer API works.
bool profiler_start(const ProfilerOptions& options);

/// Reads CCMX_PROF_FILE (+ CCMX_PROF_HZ, default 97 — a prime, so the
/// sampling clock cannot alias a periodic workload); false without
/// starting when neither variable is set.  CCMX_PROF_HZ alone profiles
/// into ./profile.jsonl.
bool profiler_start_from_env();

/// Disarms the timers, restores the previous SIGPROF disposition,
/// drains every ring, appends the ledger row, and closes the file.
/// Idempotent: a second stop() returns the same final ledger.  Also
/// folds the ledger into the obs.prof.* counters so run reports carry
/// it.
ProfilerLedger profiler_stop();

[[nodiscard]] bool profiler_running() noexcept;

/// Human-readable reason the last profiler_start() refused ("" after a
/// successful start): "SIGPROF handler already installed", "frame-pointer
/// walk found no caller (build with CCMX_FRAME_POINTERS=ON)", ...
[[nodiscard]] std::string profiler_unavailable_reason();

/// Registers the calling thread for sampling: records its stack bounds
/// and CPU clock, and — when the profiler is already running — arms its
/// timer immediately.  Threads that never register are simply not
/// sampled under per-thread timers (the worker pool registers every
/// worker; the main thread is registered by profiler_start()).  Cheap
/// and idempotent, safe to call when the profiler is off.
void profiler_register_thread();

/// Current ledger without stopping (tests and progress displays).
[[nodiscard]] ProfilerLedger profiler_ledger();

#else  // CCMX_OBS_DISABLED: inline no-ops, like the rest of the layer.

inline bool profiler_start(const ProfilerOptions&) { return false; }
inline bool profiler_start_from_env() { return false; }
inline ProfilerLedger profiler_stop() { return {}; }
[[nodiscard]] inline bool profiler_running() noexcept { return false; }
[[nodiscard]] inline std::string profiler_unavailable_reason() {
  return "observability compiled out (CCMX_OBS=OFF)";
}
inline void profiler_register_thread() {}
[[nodiscard]] inline ProfilerLedger profiler_ledger() { return {}; }

#endif  // CCMX_OBS_DISABLED

}  // namespace ccmx::obs
