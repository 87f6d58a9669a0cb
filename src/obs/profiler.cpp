#include "obs/profiler.hpp"

#ifndef CCMX_OBS_DISABLED

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/schemas.hpp"
#include "util/env.hpp"
#include "util/narrow.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <dlfcn.h>
#include <pthread.h>
#include <signal.h>
#include <sys/time.h>
#include <time.h>
#include <unistd.h>
#endif
#if defined(__linux__)
#include <sys/syscall.h>
#include <ucontext.h>
#endif
#if defined(__GNUG__)
#include <cxxabi.h>
#endif

// The sigevent member selecting SIGEV_THREAD_ID's target is still spelled
// through the union on older glibc headers.
#if defined(__linux__) && defined(SIGEV_THREAD_ID) && \
    !defined(sigev_notify_thread_id)
#define sigev_notify_thread_id _sigev_un._tid
#endif

// The SIGPROF handler and its helpers must not allocate, lock, or touch
// stdio; functions marked with the attribute below also opt out of
// sanitizer instrumentation, because the frame-pointer walk reads raw
// stack words that ASan/TSan did not see written through instrumented
// code (the reads are bounds-checked against the thread's stack segment,
// so they cannot fault).
#if defined(__clang__)
#define CCMX_PROF_SIGNAL_FN \
  __attribute__((no_sanitize("address", "thread", "undefined")))
#elif defined(__GNUC__)
#define CCMX_PROF_SIGNAL_FN \
  __attribute__((no_sanitize_address)) __attribute__((no_sanitize_undefined))
#else
#define CCMX_PROF_SIGNAL_FN
#endif

namespace ccmx::obs {

namespace {

#if defined(__unix__) || defined(__APPLE__)

constexpr std::uint32_t kMaxFrames = 48;
constexpr std::uint32_t kMinRing = 8;
constexpr std::uint32_t kMaxRing = 1u << 20;

/// One captured sample: the leaf-first program-counter stack, the obs
/// span enclosing the interrupted code, and a timestamp on the now_us()
/// timeline so samples merge with the span forest.
struct ProfSample {
  std::int64_t t_us = 0;
  std::uint64_t span = 0;
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;
  std::uintptr_t pcs[kMaxFrames] = {};
};

/// Per-thread profiling state.  The ring is single-producer (the SIGPROF
/// handler, which always runs on the owning thread) / single-consumer
/// (the drainer): the handler is the only writer of `head`, the drainer
/// the only writer of `tail`, both monotonic.  The ring storage is
/// allocated in normal context (arm_thread_locked) before `armed` is
/// released, so the handler never allocates.
struct ThreadState {
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint64_t> tail{0};
  std::atomic<std::uint64_t> captured{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> truncated{0};
  std::atomic<bool> armed{false};
  std::vector<ProfSample> ring;
  std::uint32_t capacity = 0;

  std::uintptr_t stack_lo = 0;
  std::uintptr_t stack_hi = 0;
  std::uint32_t obs_tid = 0;
  pid_t kernel_tid = 0;
  clockid_t cpu_clock{};
  bool have_cpu_clock = false;
#if defined(__linux__) && defined(SIGEV_THREAD_ID)
  timer_t timer{};
  bool timer_created = false;
#endif
  std::atomic<bool> alive{true};
};

/// Set while the profiler is between a successful start() and the
/// matching stop(); the handler gate.  File-scope so the handler does
/// not have to reach through the (lazily constructed) engine singleton.
std::atomic<bool> g_active{false};

/// now_us()-timeline origin pair: the handler derives timestamps from a
/// raw clock_gettime(CLOCK_MONOTONIC) (async-signal-safe) and these
/// offsets, recorded at start().
std::atomic<std::int64_t> g_origin_mono_ns{0};
std::atomic<std::int64_t> g_origin_obs_us{0};

/// The main executable's text range, snapshotted at start() for the
/// handler's stack-scan fallback (zero when unknown; scan disabled).
std::atomic<std::uintptr_t> g_text_lo{0};
std::atomic<std::uintptr_t> g_text_hi{0};

/// The handler finds its thread's state through this; registration sets
/// it, the thread-exit guard clears it *before* deleting the timer so a
/// straggler signal sees null and returns.
thread_local ThreadState* t_state = nullptr;

// ------------------------------------------------- signal-context code

// ccmx-lint: signal-context
CCMX_PROF_SIGNAL_FN void capture_interrupted(void* uctx, std::uintptr_t* pc,
                                             std::uintptr_t* fp,
                                             std::uintptr_t* sp) {
  *pc = 0;
  *fp = 0;
  *sp = 0;
#if defined(__linux__) && defined(__x86_64__)
  const ucontext_t* uc = static_cast<const ucontext_t*>(uctx);
  *pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  *fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  *sp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
#elif defined(__linux__) && defined(__aarch64__)
  const ucontext_t* uc = static_cast<const ucontext_t*>(uctx);
  *pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
  *fp = static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
  *sp = static_cast<std::uintptr_t>(uc->uc_mcontext.sp);
#else
  (void)uctx;
  *pc = reinterpret_cast<std::uintptr_t>(__builtin_return_address(0));
  *fp = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  *sp = *fp;
#endif
}

// Frame-pointer chain walk.  Each frame record is {caller's fp, return
// address}; every dereference is bounds-checked against the owning
// thread's stack segment and required to move strictly upward, so a
// clobbered or absent frame pointer terminates the walk instead of
// faulting.
// ccmx-lint: signal-context
CCMX_PROF_SIGNAL_FN std::uint32_t walk_frames(std::uintptr_t pc,
                                              std::uintptr_t fp,
                                              std::uintptr_t lo,
                                              std::uintptr_t hi,
                                              std::uintptr_t* pcs,
                                              std::uint32_t max_frames) {
  std::uint32_t depth = 0;
  if (pc != 0 && depth < max_frames) pcs[depth++] = pc;
  std::uintptr_t frame = fp;
  while (depth < max_frames) {
    if (frame < lo || frame + 2 * sizeof(std::uintptr_t) > hi) break;
    if ((frame & (sizeof(std::uintptr_t) - 1)) != 0) break;
    const std::uintptr_t* record =
        reinterpret_cast<const std::uintptr_t*>(frame);
    const std::uintptr_t next = record[0];
    const std::uintptr_t ret = record[1];
    if (ret < 4096) break;
    pcs[depth++] = ret;
    if (next <= frame) break;
    frame = next;
  }
  return depth;
}

// Fallback when the frame-pointer chain dies at the leaf — typically a
// sample landing inside libc, which is built without frame pointers, so
// RBP holds arbitrary callee-saved data.  Scan the stack upward from the
// interrupted SP and keep every word that points into the main
// executable's text segment: return addresses into our own code sit on
// the stack even when the chain through the foreign frame is broken.
// Heuristic by nature (a stale return address from a dead frame can slip
// in), so it only runs when the precise walk produced nothing, and both
// the word budget and the collected depth are capped.
// ccmx-lint: signal-context
CCMX_PROF_SIGNAL_FN std::uint32_t scan_stack(std::uintptr_t sp,
                                             std::uintptr_t hi,
                                             std::uintptr_t* pcs,
                                             std::uint32_t depth,
                                             std::uint32_t max_frames) {
  const std::uintptr_t text_lo = g_text_lo.load(std::memory_order_relaxed);
  const std::uintptr_t text_hi = g_text_hi.load(std::memory_order_relaxed);
  if (text_lo == 0 || text_hi <= text_lo) return depth;
  constexpr std::uint32_t kMaxScanWords = 512;
  std::uintptr_t word_addr = sp & ~(sizeof(std::uintptr_t) - 1);
  for (std::uint32_t scanned = 0;
       scanned < kMaxScanWords && depth < max_frames &&
       word_addr + sizeof(std::uintptr_t) <= hi;
       ++scanned, word_addr += sizeof(std::uintptr_t)) {
    const std::uintptr_t word =
        *reinterpret_cast<const std::uintptr_t*>(word_addr);
    if (word >= text_lo && word < text_hi) pcs[depth++] = word;
  }
  return depth;
}

// ccmx-lint: signal-context
CCMX_PROF_SIGNAL_FN void sigprof_handler(int /*signo*/, siginfo_t* /*info*/,
                                         void* uctx) {
  ThreadState* st = t_state;
  if (st == nullptr) return;
  if (!g_active.load(std::memory_order_acquire)) return;
  if (!st->armed.load(std::memory_order_acquire)) return;
  const int saved_errno = errno;
  st->captured.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t head = st->head.load(std::memory_order_relaxed);
  const std::uint64_t tail = st->tail.load(std::memory_order_acquire);
  if (head - tail >= st->capacity) {
    st->dropped.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  ProfSample& s = st->ring[head % st->capacity];
  std::uintptr_t pc = 0;
  std::uintptr_t fp = 0;
  std::uintptr_t sp = 0;
  capture_interrupted(uctx, &pc, &fp, &sp);
  s.depth = walk_frames(pc, fp, st->stack_lo, st->stack_hi, s.pcs, kMaxFrames);
  if (s.depth <= 1 && sp >= st->stack_lo && sp < st->stack_hi) {
    // Leaf-only stack: the chain broke inside a foreign (no-FP) module.
    constexpr std::uint32_t kMaxScanFrames = 16;
    s.depth = scan_stack(sp, st->stack_hi, s.pcs, s.depth, kMaxScanFrames);
  }
  if (s.depth == kMaxFrames) {
    st->truncated.fetch_add(1, std::memory_order_relaxed);
  }
  s.span = current_span_id();
  s.tid = st->obs_tid;
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  const std::int64_t mono_ns =
      static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
  s.t_us = g_origin_obs_us.load(std::memory_order_relaxed) +
           (mono_ns - g_origin_mono_ns.load(std::memory_order_relaxed)) / 1000;
  st->head.store(head + 1, std::memory_order_release);
  errno = saved_errno;
}

// ---------------------------------------------- normal-context plumbing

/// One executable mapping from the /proc/self/maps snapshot taken at
/// start(): the symbolizer's fallback when dladdr knows nothing about a
/// program counter (static functions, stripped libraries).  `offset` is
/// the file offset mapped at `lo`.
struct MapsEntry {
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
  std::uint64_t offset = 0;
  std::string path;
};

/// A symbolized (or not) frame, interned per distinct program counter;
/// sample rows reference frames by id to keep the JSONL compact.
struct FrameRec {
  std::uint64_t id = 0;
  bool symbolized = false;
};

struct Engine {
  /// Control mutex: serializes start/stop and guards reason + final
  /// ledger.  Never held while joining the drainer together with
  /// data_mu (lock order: mu -> data_mu).
  std::mutex mu;
  bool running = false;
  std::string reason = "profiler never started";
  ProfilerOptions opts;
  bool thread_timers = false;
  bool sa_installed = false;
  struct sigaction old_sa {};
  bool itimer_armed = false;
  std::int64_t armed_cpu_ns = 0;  ///< process CPU clock when timers armed
  ProfilerLedger final_ledger;

  /// Data mutex: guards everything the drainer sweeps — the thread
  /// registry, the output stream, the frame intern table, and the
  /// written/truncated tallies.
  std::mutex data_mu;
  std::vector<std::shared_ptr<ThreadState>> threads;
  std::ofstream out;
  std::map<std::uintptr_t, FrameRec> frames;
  std::uint64_t next_frame_id = 1;
  std::uint64_t written = 0;
  std::uint64_t armed_threads = 0;
  std::vector<MapsEntry> maps;

  std::condition_variable_any cv;
  std::jthread drainer;
};

/// Deliberately immortal (never destroyed): pool workers run their
/// thread-exit guards while static destructors may already be tearing
/// the process down, and the guard must always find a live registry —
/// same reason the trace sink is swept, not owned, by its threads.
Engine& engine() {
  static Engine* e = new Engine;
  return *e;
}

/// CPU time of the whole process (every thread), in nanoseconds.
std::int64_t process_cpu_ns() noexcept {
  struct timespec ts {};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

pid_t current_kernel_tid() noexcept {
#if defined(__linux__)
  return static_cast<pid_t>(::syscall(SYS_gettid));
#else
  return ::getpid();
#endif
}

void thread_stack_bounds(std::uintptr_t* lo, std::uintptr_t* hi) {
  *lo = 0;
  *hi = 0;
#if defined(__linux__)
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* addr = nullptr;
    std::size_t size = 0;
    if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
      *lo = reinterpret_cast<std::uintptr_t>(addr);
      *hi = *lo + size;
    }
    pthread_attr_destroy(&attr);
  }
#endif
  if (*lo == 0) {
    // Fallback bounds: a window around the current stack pointer.  Wide
    // enough for real frames, narrow enough that a garbage frame pointer
    // still terminates the walk.
    const std::uintptr_t here =
        reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
    *lo = here > (1u << 20) ? here - (1u << 20) : 0;
    *hi = here + (1u << 20);
  }
}

/// Frame-pointer self-check: three noinline frames walked from the leaf
/// must surface at least the two callers.  Optimized builds without
/// -fno-omit-frame-pointer fail here, which start() reports as a
/// degradation reason instead of emitting unattributable garbage.
__attribute__((noinline)) std::uint32_t fp_check_leaf() {
  std::uintptr_t pcs[8] = {};
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
  thread_stack_bounds(&lo, &hi);
  const std::uintptr_t fp =
      reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  const std::uintptr_t pc =
      reinterpret_cast<std::uintptr_t>(__builtin_return_address(0));
  return walk_frames(pc, fp, lo, hi, pcs, 8);
}

__attribute__((noinline)) std::uint32_t fp_check_mid() {
  // The += keeps the call from being tail-called away.
  std::uint32_t depth = fp_check_leaf();
  depth += 0;
  return depth;
}

bool frame_pointers_usable() { return fp_check_mid() >= 2; }

void snapshot_maps(std::vector<MapsEntry>& maps) {
  maps.clear();
#if defined(__linux__)
  std::ifstream in("/proc/self/maps");
  std::string line;
  while (std::getline(in, line)) {
    // 55e0..-55e1.. r-xp offset dev inode      /path/to/module
    std::istringstream row(line);
    std::string range;
    std::string perms;
    std::string offset;
    row >> range >> perms >> offset;
    if (perms.size() < 3 || perms[2] != 'x') continue;
    const std::size_t dash = range.find('-');
    if (dash == std::string::npos) continue;
    MapsEntry entry;
    entry.lo = std::strtoull(range.substr(0, dash).c_str(), nullptr, 16);
    entry.hi = std::strtoull(range.substr(dash + 1).c_str(), nullptr, 16);
    entry.offset = std::strtoull(offset.c_str(), nullptr, 16);
    std::string rest;
    std::getline(row, rest);
    const std::size_t slash = rest.rfind(' ');
    if (slash != std::string::npos) entry.path = rest.substr(slash + 1);
    maps.push_back(std::move(entry));
  }
#endif
}

/// Publishes the main executable's text range for the handler's
/// stack-scan fallback: the union of executable mappings whose path is
/// the /proc/self/exe target.  Zeroed when the platform can't tell.
void publish_main_text_range(const std::vector<MapsEntry>& maps) {
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
#if defined(__linux__)
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (len > 0) {
    exe[len] = '\0';
    for (const MapsEntry& entry : maps) {
      if (entry.path != exe) continue;
      if (lo == 0 || entry.lo < lo) lo = entry.lo;
      if (entry.hi > hi) hi = entry.hi;
    }
  }
#else
  (void)maps;
#endif
  g_text_lo.store(lo, std::memory_order_relaxed);
  g_text_hi.store(hi, std::memory_order_relaxed);
}

std::string basename_of(std::string_view path) {
  const std::size_t slash = path.rfind('/');
  return std::string(slash == std::string_view::npos
                         ? path
                         : path.substr(slash + 1));
}

std::string demangle(const char* name) {
#if defined(__GNUG__)
  int status = 0;
  char* out = abi::__cxa_demangle(name, nullptr, nullptr, &status);
  if (status == 0 && out != nullptr) {
    std::string result(out);
    std::free(out);
    return result;
  }
  std::free(out);
#endif
  return std::string(name);
}

/// Symbolizes one program counter (normal context only): dladdr against
/// the dynamic symbol table first — the build links with
/// -Wl,--export-dynamic so the repo's own functions resolve; `offset` is
/// then pc minus the symbol's start.  Otherwise the maps snapshot names
/// the frame module+0x<file offset>, which stays the same from run to
/// run whatever the load address and which `addr2line -e module`
/// resolves; a pc outside every mapping is a bare hex address.
void describe_pc(Engine& eng, std::uintptr_t pc, std::string* sym,
                 std::string* module, std::uint64_t* offset,
                 bool* symbolized) {
  *symbolized = false;
  *offset = 0;
  Dl_info info{};
  // The *call* return addresses in pcs[1..] point one byte past the call
  // instruction; resolving pc-1 attributes them to the calling line's
  // function, not a possibly-adjacent next symbol.  pcs[0] is the
  // interrupted instruction itself and is resolved exactly, but being
  // off by one byte cannot change its enclosing symbol.
  const std::uintptr_t probe = pc > 0 ? pc - 1 : pc;
  if (dladdr(reinterpret_cast<void*>(probe), &info) != 0) {
    if (info.dli_sname != nullptr) {
      *sym = demangle(info.dli_sname);
      *offset = pc - reinterpret_cast<std::uintptr_t>(info.dli_saddr);
      *symbolized = true;
    }
    if (info.dli_fname != nullptr) *module = basename_of(info.dli_fname);
  }
  if (*symbolized) return;
  const auto mapping = std::find_if(
      eng.maps.begin(), eng.maps.end(),
      [pc](const MapsEntry& e) { return pc >= e.lo && pc < e.hi; });
  char buf[32];
  if (mapping == eng.maps.end()) {
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(pc));
    *sym = buf;
    return;
  }
  if (module->empty()) {
    *module = mapping->path.empty() ? "anon" : basename_of(mapping->path);
  }
  *offset = mapping->offset + (pc - mapping->lo);
  std::snprintf(buf, sizeof buf, "+0x%llx",
                static_cast<unsigned long long>(*offset));
  *sym = *module + buf;
}

/// Interns a pc, writing its "frame" row on first sight.  data_mu held.
std::uint64_t intern_frame(Engine& eng, std::uintptr_t pc) {
  const auto it = eng.frames.find(pc);
  if (it != eng.frames.end()) return it->second.id;
  FrameRec rec;
  rec.id = eng.next_frame_id++;
  std::string sym;
  std::string module;
  std::uint64_t offset = 0;
  describe_pc(eng, pc, &sym, &module, &offset, &rec.symbolized);
  std::ostringstream os;
  json::Writer w(os);
  w.begin_object();
  w.key("ev").value("frame");
  w.key("id").value(rec.id);
  w.key("pc").value(std::uint64_t{pc});
  w.key("sym").value(sym);
  w.key("module").value(module);
  w.key("off").value(offset);
  w.key("symbolized").value(rec.symbolized);
  w.end_object();
  eng.out << os.str() << '\n';
  eng.frames.emplace(pc, rec);
  return rec.id;
}

/// Drains every ring into the file.  data_mu held by the caller.
void sweep_locked(Engine& eng) {
  for (const std::shared_ptr<ThreadState>& st : eng.threads) {
    const std::uint64_t head = st->head.load(std::memory_order_acquire);
    std::uint64_t tail = st->tail.load(std::memory_order_relaxed);
    while (tail < head) {
      const ProfSample& s = st->ring[tail % st->capacity];
      std::ostringstream os;
      json::Writer w(os);
      w.begin_object();
      w.key("ev").value("sample");
      w.key("tid").value(std::uint64_t{s.tid});
      w.key("span").value(s.span);
      w.key("t_us").value(s.t_us);
      w.key("stack").begin_array();
      for (std::uint32_t f = 0; f < s.depth; ++f) {
        w.value(intern_frame(eng, s.pcs[f]));
      }
      w.end_array();
      w.end_object();
      eng.out << os.str() << '\n';
      ++eng.written;
      ++tail;
      st->tail.store(tail, std::memory_order_release);
    }
  }
  eng.out.flush();
}

/// Sums the per-thread atomics into a ledger.  data_mu held.
ProfilerLedger ledger_locked(Engine& eng) {
  ProfilerLedger ledger;
  for (const std::shared_ptr<ThreadState>& st : eng.threads) {
    ledger.captured += st->captured.load(std::memory_order_relaxed);
    ledger.dropped += st->dropped.load(std::memory_order_relaxed);
    ledger.truncated += st->truncated.load(std::memory_order_relaxed);
  }
  ledger.threads = eng.armed_threads;
  ledger.written = eng.written;
  ledger.thread_timers = eng.thread_timers;
  return ledger;
}

/// Allocates the ring and (in per-thread-timer mode) arms the thread's
/// CPU-time timer.  data_mu held; normal context.
void arm_thread_locked(Engine& eng, ThreadState& st) {
  if (st.armed.load(std::memory_order_relaxed)) return;
  if (!st.alive.load(std::memory_order_relaxed)) return;
  st.capacity = std::clamp(eng.opts.ring_capacity, kMinRing, kMaxRing);
  st.ring.assign(st.capacity, ProfSample{});
  st.head.store(0, std::memory_order_relaxed);
  st.tail.store(0, std::memory_order_relaxed);
  st.captured.store(0, std::memory_order_relaxed);
  st.dropped.store(0, std::memory_order_relaxed);
  st.truncated.store(0, std::memory_order_relaxed);
  st.armed.store(true, std::memory_order_release);
  ++eng.armed_threads;
#if defined(__linux__) && defined(SIGEV_THREAD_ID)
  if (eng.thread_timers && !st.timer_created && st.have_cpu_clock) {
    struct sigevent sev {};
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGPROF;
    sev.sigev_notify_thread_id = st.kernel_tid;
    if (timer_create(st.cpu_clock, &sev, &st.timer) == 0) {
      st.timer_created = true;
      const long long period_ns = 1000000000LL / eng.opts.hz;
      struct itimerspec its {};
      its.it_interval.tv_sec = static_cast<time_t>(period_ns / 1000000000LL);
      its.it_interval.tv_nsec = static_cast<long>(period_ns % 1000000000LL);
      its.it_value = its.it_interval;
      if (timer_settime(st.timer, 0, &its, nullptr) != 0) {
        timer_delete(st.timer);
        st.timer_created = false;
      }
    }
    if (!st.timer_created) {
      std::fprintf(stderr,
                   "ccmx: profiler could not arm a CPU-time timer for "
                   "tid %d: %s (thread will not be sampled)\n",
                   util::narrow_cast<int>(st.kernel_tid),
                   std::strerror(errno));
    }
  }
#endif
}

/// Deletes the thread's timer if it owns one.  data_mu held.
void disarm_thread_locked(ThreadState& st) {
#if defined(__linux__) && defined(SIGEV_THREAD_ID)
  if (st.timer_created) {
    timer_delete(st.timer);
    st.timer_created = false;
  }
#endif
  st.armed.store(false, std::memory_order_release);
}

/// Clears the calling thread's registration at thread exit: the TLS
/// pointer goes null first so a signal already in flight sees nothing,
/// then the timer is deleted and the state marked dead (its undrained
/// samples survive in the registry until the next sweep).
struct ThreadGuard {
  ~ThreadGuard() {
    ThreadState* st = t_state;
    if (st == nullptr) return;
    t_state = nullptr;
    Engine& eng = engine();
    const std::scoped_lock lock(eng.data_mu);
    disarm_thread_locked(*st);
    st->alive.store(false, std::memory_order_release);
  }
};

void drainer_main(std::stop_token stop) {
  Engine& eng = engine();
  std::mutex wait_mu;
  const auto interval = std::chrono::milliseconds(
      std::clamp<std::int64_t>(eng.opts.drain_interval_ms, 1, 10000));
  while (!stop.stop_requested()) {
    {
      std::unique_lock lock(wait_mu);
      eng.cv.wait_for(lock, stop, interval,
                      [&] { return stop.stop_requested(); });
    }
    if (stop.stop_requested()) break;
    const std::scoped_lock lock(eng.data_mu);
    sweep_locked(eng);
  }
}

#endif  // __unix__ || __APPLE__

}  // namespace

#if defined(__unix__) || defined(__APPLE__)

void profiler_register_thread() {
  if (t_state != nullptr) return;
  auto st = std::make_shared<ThreadState>();
  st->kernel_tid = current_kernel_tid();
  st->obs_tid = thread_id();
  st->have_cpu_clock =
      pthread_getcpuclockid(pthread_self(), &st->cpu_clock) == 0;
  thread_stack_bounds(&st->stack_lo, &st->stack_hi);
  // Touch the span-id mirror so its TLS slot exists before any signal
  // can read it on this thread.
  (void)current_span_id();
  Engine& eng = engine();
  {
    const std::scoped_lock lock(eng.data_mu);
    eng.threads.push_back(st);
    t_state = st.get();
    if (g_active.load(std::memory_order_relaxed)) {
      arm_thread_locked(eng, *st);
    }
  }
  thread_local ThreadGuard guard;
  (void)guard;
}

bool profiler_start(const ProfilerOptions& options) {
  Engine& eng = engine();
  const std::scoped_lock control(eng.mu);
  const auto refuse = [&](std::string why) {
    eng.reason = std::move(why);
    std::fprintf(stderr, "ccmx: profiler unavailable: %s\n",
                 eng.reason.c_str());
    return false;
  };
  if (eng.running) return refuse("profiler already running");
  if (options.path.empty()) return refuse("no output path configured");
  if (!frame_pointers_usable()) {
    return refuse(
        "frame-pointer walk found no caller frames (build with "
        "CCMX_FRAME_POINTERS=ON, the default)");
  }

  // Claim SIGPROF, refusing to displace a foreign handler.
  struct sigaction current {};
  if (sigaction(SIGPROF, nullptr, &current) != 0) {
    return refuse(std::string("sigaction(SIGPROF) failed: ") +
                  std::strerror(errno));
  }
  const bool sigprof_free =
      (current.sa_flags & SA_SIGINFO) == 0 &&
      (current.sa_handler == SIG_DFL || current.sa_handler == SIG_IGN);
  if (!sigprof_free) {
    return refuse(
        "SIGPROF handler already installed by another component; refusing "
        "to displace it");
  }

  {
    const std::scoped_lock data(eng.data_mu);
    eng.opts = options;
    eng.opts.hz = std::clamp(options.hz, 1u, 10000u);
    eng.out.open(options.path, std::ios::trunc);
    if (!eng.out.is_open()) {
      return refuse("cannot open profile file: " + options.path);
    }
    eng.frames.clear();
    eng.next_frame_id = 1;
    eng.written = 0;
    eng.armed_threads = 0;
    snapshot_maps(eng.maps);
    publish_main_text_range(eng.maps);

    // Drop registry entries of threads that exited since the last run
    // (their samples were drained at stop()).
    std::erase_if(eng.threads, [](const std::shared_ptr<ThreadState>& st) {
      return !st->alive.load(std::memory_order_acquire);
    });
  }

  struct sigaction sa {};
  sa.sa_sigaction = sigprof_handler;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, &eng.old_sa) != 0) {
    const std::scoped_lock data(eng.data_mu);
    eng.out.close();
    return refuse(std::string("sigaction(SIGPROF) failed: ") +
                  std::strerror(errno));
  }
  eng.sa_installed = true;

  struct timespec ts {};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  g_origin_mono_ns.store(
      static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec,
      std::memory_order_relaxed);
  g_origin_obs_us.store(now_us(), std::memory_order_relaxed);
  eng.armed_cpu_ns = process_cpu_ns();

  // Arm: per-thread CLOCK_THREAD_CPUTIME_ID timers when the platform has
  // them, otherwise one process-wide ITIMER_PROF.
#if defined(__linux__) && defined(SIGEV_THREAD_ID)
  eng.thread_timers = true;
#else
  eng.thread_timers = false;
#endif
  g_active.store(true, std::memory_order_release);
  profiler_register_thread();  // the caller samples too
  std::uint64_t armed = 0;
  {
    const std::scoped_lock data(eng.data_mu);
    for (const std::shared_ptr<ThreadState>& st : eng.threads) {
      arm_thread_locked(eng, *st);
#if defined(__linux__) && defined(SIGEV_THREAD_ID)
      if (st->timer_created) ++armed;
#endif
    }
  }
  if (eng.thread_timers && armed == 0) {
    // timer_create never worked; fall back to the process-wide clock.
    eng.thread_timers = false;
  }
  if (!eng.thread_timers) {
    struct itimerval itv {};
    const long period_us = 1000000L / static_cast<long>(eng.opts.hz);
    itv.it_interval.tv_sec = period_us / 1000000L;
    itv.it_interval.tv_usec = period_us % 1000000L;
    itv.it_value = itv.it_interval;
    if (setitimer(ITIMER_PROF, &itv, nullptr) != 0) {
      g_active.store(false, std::memory_order_release);
      sigaction(SIGPROF, &eng.old_sa, nullptr);
      eng.sa_installed = false;
      const std::scoped_lock data(eng.data_mu);
      eng.out.close();
      return refuse(std::string("no usable profiling timer: setitimer "
                                "failed: ") +
                    std::strerror(errno));
    }
    eng.itimer_armed = true;
  }

  {
    const std::scoped_lock data(eng.data_mu);
    std::ostringstream os;
    json::Writer w(os);
    w.begin_object();
    w.key("schema").value(kProfileSchema);
    w.key("ev").value("meta");
    w.key("pid").value(std::uint64_t{static_cast<std::uint64_t>(getpid())});
    w.key("hz").value(std::uint64_t{eng.opts.hz});
    w.key("mechanism")
        .value(eng.thread_timers ? "timer_create" : "setitimer");
    w.key("start_us").value(g_origin_obs_us.load(std::memory_order_relaxed));
    w.end_object();
    eng.out << os.str() << '\n';
  }
  eng.drainer = std::jthread(drainer_main);
  eng.running = true;
  eng.reason.clear();
  return true;
}

bool profiler_start_from_env() {
  const char* file = std::getenv("CCMX_PROF_FILE");
  const char* hz = std::getenv("CCMX_PROF_HZ");
  const bool has_file = file != nullptr && file[0] != '\0';
  const bool has_hz = hz != nullptr && hz[0] != '\0';
  if (!has_file && !has_hz) return false;
  ProfilerOptions options;
  options.path = has_file ? file : "profile.jsonl";
  options.hz = util::narrow_cast<unsigned>(
      util::env_int("CCMX_PROF_HZ", 1, 10'000, 97));
  return profiler_start(options);
}

ProfilerLedger profiler_stop() {
  Engine& eng = engine();
  const std::scoped_lock control(eng.mu);
  if (!eng.running) return eng.final_ledger;
  g_active.store(false, std::memory_order_release);
  {
    const std::scoped_lock data(eng.data_mu);
    for (const std::shared_ptr<ThreadState>& st : eng.threads) {
      disarm_thread_locked(*st);
    }
  }
  if (eng.itimer_armed) {
    struct itimerval zero {};
    setitimer(ITIMER_PROF, &zero, nullptr);
    eng.itimer_armed = false;
  }
  const std::int64_t cpu_ns = process_cpu_ns() - eng.armed_cpu_ns;
  if (eng.sa_installed) {
    sigaction(SIGPROF, &eng.old_sa, nullptr);
    eng.sa_installed = false;
  }
  eng.drainer.request_stop();
  eng.cv.notify_all();
  if (eng.drainer.joinable()) eng.drainer.join();

  ProfilerLedger ledger;
  {
    const std::scoped_lock data(eng.data_mu);
    sweep_locked(eng);  // final drain: nothing left in the rings
    ledger = ledger_locked(eng);
    ledger.cpu_ns = cpu_ns > 0 ? static_cast<std::uint64_t>(cpu_ns) : 0;
    std::ostringstream os;
    json::Writer w(os);
    w.begin_object();
    w.key("ev").value("ledger");
    w.key("captured").value(ledger.captured);
    w.key("written").value(ledger.written);
    w.key("dropped").value(ledger.dropped);
    w.key("truncated").value(ledger.truncated);
    w.key("threads").value(ledger.threads);
    w.key("cpu_ns").value(ledger.cpu_ns);
    w.end_object();
    eng.out << os.str() << '\n';
    eng.out.close();
  }
  Counter("obs.prof.captured").add(ledger.captured);
  Counter("obs.prof.written").add(ledger.written);
  Counter("obs.prof.dropped").add(ledger.dropped);
  Counter("obs.prof.truncated").add(ledger.truncated);
  eng.final_ledger = ledger;
  eng.running = false;
  return ledger;
}

bool profiler_running() noexcept {
  Engine& eng = engine();
  const std::scoped_lock control(eng.mu);
  return eng.running;
}

std::string profiler_unavailable_reason() {
  Engine& eng = engine();
  const std::scoped_lock control(eng.mu);
  return eng.reason;
}

ProfilerLedger profiler_ledger() {
  Engine& eng = engine();
  const std::scoped_lock data(eng.data_mu);
  return ledger_locked(eng);
}

#else  // !(__unix__ || __APPLE__): no POSIX signals — degraded mode.

void profiler_register_thread() {}
bool profiler_start(const ProfilerOptions&) { return false; }
bool profiler_start_from_env() { return false; }
ProfilerLedger profiler_stop() { return {}; }
bool profiler_running() noexcept { return false; }
std::string profiler_unavailable_reason() {
  return "sampling profiler requires POSIX signals";
}
ProfilerLedger profiler_ledger() { return {}; }

#endif

}  // namespace ccmx::obs

#endif  // CCMX_OBS_DISABLED
