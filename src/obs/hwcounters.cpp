#include "obs/hwcounters.hpp"

#ifndef CCMX_OBS_DISABLED

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/schemas.hpp"
#include "util/env.hpp"
#include "util/narrow.hpp"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>
#elif defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace ccmx::obs {

namespace {

// ------------------------------------------------------ counter state

enum HwEvent : std::size_t {
  kInstructions = 0,
  kCycles,
  kCacheReferences,
  kCacheMisses,
  kBranches,
  kBranchMisses,
  kTaskClock,
  kEventCount,
};

struct HwState {
  bool probed = false;
  bool available = false;
  std::string reason = "not probed";
  int fds[kEventCount] = {-1, -1, -1, -1, -1, -1, -1};
};

std::mutex& hw_mutex() {
  static std::mutex m;
  return m;
}

HwState& hw_state() {
  static HwState state;
  return state;
}

#if defined(__linux__)

long read_paranoid_level() {
  std::ifstream in("/proc/sys/kernel/perf_event_paranoid");
  long level = -100;  // sentinel: file unreadable
  if (in.is_open()) in >> level;
  return level;
}

std::string errno_hint(int err) {
  switch (err) {
    case EPERM:
    case EACCES: {
      std::string hint = "EPERM (insufficient permission";
      const long paranoid = read_paranoid_level();
      if (paranoid != -100) {
        hint += "; perf_event_paranoid=" + std::to_string(paranoid);
      }
      hint += ")";
      return hint;
    }
    case ENOENT: return "ENOENT (event not supported by this PMU)";
    case ENOSYS: return "ENOSYS (kernel built without perf events)";
    case ENODEV: return "ENODEV (no PMU on this machine/VM)";
    default: return std::strerror(err);
  }
}

long sys_perf_event_open(perf_event_attr* attr, pid_t pid, int cpu,
                         int group_fd, unsigned long flags) {
  return ::syscall(SYS_perf_event_open, attr, pid, cpu, group_fd, flags);
}

int open_event(std::uint32_t type, std::uint64_t config, int& err) {
  perf_event_attr attr{};
  attr.size = sizeof(attr);
  attr.type = type;
  attr.config = config;
  attr.disabled = 0;
  // inherit=1 so worker-pool threads spawned after the probe count too;
  // this is also why each event has its own fd — PERF_FORMAT_GROUP reads
  // and inherit do not combine.
  attr.inherit = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.read_format =
      PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
  const long fd = sys_perf_event_open(&attr, 0, -1, -1, PERF_FLAG_FD_CLOEXEC);
  if (fd < 0) {
    err = errno;
    return -1;
  }
  return util::narrow_cast<int>(fd);
}

/// One fd's count, scaled by time_enabled/time_running so multiplexed
/// counters stay comparable; 0 for a closed fd or a failed read.
std::uint64_t read_scaled(int fd) noexcept {
  if (fd < 0) return 0;
  std::uint64_t buf[3] = {0, 0, 0};  // {value, time_enabled, time_running}
  if (::read(fd, buf, sizeof buf) != static_cast<ssize_t>(sizeof buf)) {
    return 0;
  }
  if (buf[2] == 0 || buf[1] == buf[2]) return buf[0];
  const double scaled = static_cast<double>(buf[0]) *
                        (static_cast<double>(buf[1]) /
                         static_cast<double>(buf[2]));
  return static_cast<std::uint64_t>(scaled);
}

/// Opens the counter set.  instructions + cycles are required; the rest
/// are optional (partial PMUs in VMs expose only a subset) and read 0
/// when absent.  Called once under hw_mutex().
void probe_locked(HwState& state) {
  state.probed = true;
  struct EventSpec {
    std::uint32_t type;
    std::uint64_t config;
    bool required;
  };
  static constexpr EventSpec kEvents[kEventCount] = {
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS, true},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES, true},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES, false},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES, false},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_INSTRUCTIONS, false},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES, false},
      {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK, false},
  };
  for (std::size_t i = 0; i < kEventCount; ++i) {
    int err = 0;
    state.fds[i] = open_event(kEvents[i].type, kEvents[i].config, err);
    if (state.fds[i] < 0 && kEvents[i].required) {
      for (std::size_t j = 0; j < i; ++j) {
        if (state.fds[j] >= 0) ::close(state.fds[j]);
        state.fds[j] = -1;
      }
      state.available = false;
      state.reason = "perf_event_open failed: " + errno_hint(err);
      return;
    }
  }
  state.available = true;
  state.reason.clear();
}

void close_fds_locked(HwState& state) noexcept {
  for (int& fd : state.fds) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

#else  // non-Linux

void probe_locked(HwState& state) {
  state.probed = true;
  state.available = false;
  state.reason = "perf_event_open requires Linux";
}

void close_fds_locked(HwState&) noexcept {}

#endif  // __linux__

/// Probes on first call; the unavailable diagnostic prints once per
/// probe (re-probing is a test-only affair), never on the hot path.
const HwState& probed_state() {
  std::scoped_lock lock(hw_mutex());
  HwState& state = hw_state();
  if (!state.probed) {
    probe_locked(state);
    if (!state.available) {
      std::fprintf(stderr, "ccmx: hardware counters unavailable: %s\n",
                   state.reason.c_str());
    }
  }
  return state;
}

// ------------------------------------------------- /proc self sampling

struct ProcSample {
  std::int64_t rss_bytes = 0;
  double utime_seconds = 0.0;
  double stime_seconds = 0.0;
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;
};

#if defined(__linux__)

ProcSample read_proc_self() {
  ProcSample sample;
  {
    // /proc/self/statm: size resident shared ... (pages).
    std::ifstream in("/proc/self/statm");
    std::uint64_t size_pages = 0;
    std::uint64_t resident_pages = 0;
    if (in >> size_pages >> resident_pages) {
      const long page = ::sysconf(_SC_PAGESIZE);
      sample.rss_bytes = static_cast<std::int64_t>(resident_pages) *
                         (page > 0 ? page : 4096);
    }
  }
  {
    // /proc/self/stat: "pid (comm) state ppid ...".  comm may contain
    // spaces, so split after the last ')'; field N (1-based, N >= 3) is
    // then token N-3 of the remainder.
    std::ifstream in("/proc/self/stat");
    std::string line;
    std::getline(in, line);
    const std::size_t close = line.rfind(')');
    if (close != std::string::npos) {
      std::istringstream rest(line.substr(close + 1));
      std::vector<std::string> tokens;
      std::string token;
      while (rest >> token && tokens.size() < 16) tokens.push_back(token);
      const long ticks = ::sysconf(_SC_CLK_TCK);
      const double tick_hz = ticks > 0 ? static_cast<double>(ticks) : 100.0;
      const auto field = [&](std::size_t n) -> std::uint64_t {
        // n is the 1-based field number from proc(5).
        return n - 3 < tokens.size()
                   ? std::strtoull(tokens[n - 3].c_str(), nullptr, 10)
                   : 0;
      };
      sample.minor_faults = field(10);
      sample.major_faults = field(12);
      sample.utime_seconds = static_cast<double>(field(14)) / tick_hz;
      sample.stime_seconds = static_cast<double>(field(15)) / tick_hz;
    }
  }
  return sample;
}

#elif defined(__unix__) || defined(__APPLE__)

ProcSample read_proc_self() {
  ProcSample sample;
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
    sample.rss_bytes = static_cast<std::int64_t>(usage.ru_maxrss);
#else
    sample.rss_bytes = static_cast<std::int64_t>(usage.ru_maxrss) * 1024;
#endif
    sample.utime_seconds = static_cast<double>(usage.ru_utime.tv_sec) +
                           static_cast<double>(usage.ru_utime.tv_usec) / 1e6;
    sample.stime_seconds = static_cast<double>(usage.ru_stime.tv_sec) +
                           static_cast<double>(usage.ru_stime.tv_usec) / 1e6;
    sample.minor_faults = static_cast<std::uint64_t>(usage.ru_minflt);
    sample.major_faults = static_cast<std::uint64_t>(usage.ru_majflt);
  }
  return sample;
}

#else

ProcSample read_proc_self() { return {}; }

#endif

}  // namespace

// ---------------------------------------------------------- public api

bool hw_available() noexcept { return probed_state().available; }

std::string hw_unavailable_reason() { return probed_state().reason; }

HwCounters hw_read() noexcept {
  const HwState& state = probed_state();
  HwCounters counters;
  if (!state.available) return counters;
#if defined(__linux__)
  counters.available = true;
  counters.instructions = read_scaled(state.fds[kInstructions]);
  counters.cycles = read_scaled(state.fds[kCycles]);
  counters.cache_references = read_scaled(state.fds[kCacheReferences]);
  counters.cache_misses = read_scaled(state.fds[kCacheMisses]);
  counters.branches = read_scaled(state.fds[kBranches]);
  counters.branch_misses = read_scaled(state.fds[kBranchMisses]);
  counters.task_clock_ns = read_scaled(state.fds[kTaskClock]);
#endif
  return counters;
}

void hw_reset_for_testing() noexcept {
  std::scoped_lock lock(hw_mutex());
  HwState& state = hw_state();
  close_fds_locked(state);
  state.probed = false;
  state.available = false;
  state.reason = "not probed";
}

void hw_force_unavailable_for_testing(std::string_view reason) {
  std::scoped_lock lock(hw_mutex());
  HwState& state = hw_state();
  close_fds_locked(state);
  state.probed = true;
  state.available = false;
  state.reason = std::string(reason);
}

// ----------------------------------------------------------- sampler

struct TelemetrySampler::Impl {
  std::ofstream out;
  std::chrono::milliseconds interval{100};
  std::mutex mutex;  // serializes the tick loop with stop()'s final row
  std::condition_variable_any cv;
  std::jthread thread;
  std::atomic<bool> running{false};
  std::atomic<std::uint64_t> rows{0};

  std::uint64_t seq = 0;
  std::int64_t last_t_us = 0;
  std::map<std::string, std::uint64_t> last_counters;

  void write_row() {
    const std::int64_t t = now_us();
    const ProcSample proc = read_proc_self();

    std::map<std::string, std::uint64_t> counters;
    for (const auto& [name, value] : snapshot().counters) {
      counters[name] = value;
    }

    std::ostringstream os;
    json::Writer w(os);
    w.begin_object();
    w.key("schema").value(kTimeseriesSchema);
    w.key("seq").value(seq);
    w.key("t_us").value(t);
    w.key("dt_us").value(t - last_t_us);
    w.key("rss_bytes").value(proc.rss_bytes);
    w.key("utime_s").value(proc.utime_seconds);
    w.key("stime_s").value(proc.stime_seconds);
    w.key("minor_faults").value(proc.minor_faults);
    w.key("major_faults").value(proc.major_faults);
    // obs counter deltas over the interval; only counters that moved,
    // so idle rows stay small.
    w.key("counters").begin_object();
    for (const auto& [name, value] : counters) {
      const auto last = last_counters.find(name);
      const std::uint64_t before =
          last == last_counters.end() ? 0 : last->second;
      if (value > before) w.key(name).value(value - before);
    }
    w.end_object();
    w.end_object();
    out << os.str() << '\n';
    out.flush();  // rows are rare; keep the file tail-able

    last_counters = std::move(counters);
    last_t_us = t;
    ++seq;
    rows.fetch_add(1, std::memory_order_relaxed);
  }

  void run(std::stop_token st) {
    std::unique_lock lock(mutex);
    while (true) {
      cv.wait_for(lock, st, interval, [&] { return st.stop_requested(); });
      if (st.stop_requested()) return;
      write_row();
    }
  }
};

TelemetrySampler::TelemetrySampler() : impl_(std::make_unique<Impl>()) {}

TelemetrySampler::~TelemetrySampler() { stop(); }

bool TelemetrySampler::start(const SamplerOptions& options) {
  if (impl_->running.load()) {
    std::fprintf(stderr, "ccmx: telemetry sampler already running\n");
    return false;
  }
  impl_->out.open(options.path, std::ios::trunc | std::ios::binary);
  if (!impl_->out.is_open()) {
    std::fprintf(stderr, "ccmx: cannot open telemetry file: %s\n",
                 options.path.c_str());
    return false;
  }
  impl_->interval =
      std::chrono::milliseconds(options.interval_ms < 1 ? 1
                                                        : options.interval_ms);
  impl_->seq = 0;
  impl_->rows.store(0, std::memory_order_relaxed);
  impl_->last_t_us = now_us();
  impl_->last_counters.clear();
  for (const auto& [name, value] : snapshot().counters) {
    impl_->last_counters[name] = value;
  }
  impl_->running.store(true);
  impl_->thread =
      std::jthread([impl = impl_.get()](std::stop_token st) { impl->run(st); });
  return true;
}

bool TelemetrySampler::start_from_env() {
  const char* path = std::getenv("CCMX_SAMPLE_FILE");
  if (path == nullptr || path[0] == '\0') return false;
  SamplerOptions options;
  options.path = path;
  options.interval_ms = util::env_int("CCMX_SAMPLE_MS", 1, 3'600'000,
                                      options.interval_ms);
  return start(options);
}

void TelemetrySampler::stop() {
  if (!impl_->running.exchange(false)) return;
  impl_->thread.request_stop();
  impl_->cv.notify_all();
  impl_->thread.join();
  // Final row after the join: even a run shorter than one interval gets
  // a usable series, and the row covers the tail of the run.
  impl_->write_row();
  impl_->out.flush();
  impl_->out.close();
}

bool TelemetrySampler::running() const noexcept {
  return impl_->running.load();
}

std::uint64_t TelemetrySampler::rows_written() const noexcept {
  return impl_->rows.load(std::memory_order_relaxed);
}

}  // namespace ccmx::obs

#endif  // CCMX_OBS_DISABLED
