#include "obs/progress.hpp"

#include <cstdio>

#include "obs/obs.hpp"
#include "util/env.hpp"

namespace ccmx::obs {

namespace {

constexpr std::int64_t kMaxIntervalMs = 3'600'000;  // one hour

/// "1.23e+07/s" style rate without iostream locale surprises.
void format_rate(char* buf, std::size_t len, double per_second) {
  if (per_second >= 1e6 || (per_second > 0 && per_second < 0.01)) {
    std::snprintf(buf, len, "%.2e/s", per_second);
  } else {
    std::snprintf(buf, len, "%.1f/s", per_second);
  }
}

}  // namespace

ProgressMeter::ProgressMeter(std::string label, std::uint64_t total)
    : label_(std::move(label)), total_(total) {
  // Read once per process, so a bad value warns once, not per meter.
  static const bool env_on = util::env_flag("CCMX_PROGRESS");
  active_ = env_on || enabled();
  if (!active_) return;
  static const std::int64_t interval_ms =
      util::env_int("CCMX_PROGRESS_MS", 1, kMaxIntervalMs, 500);
  start_us_ = now_us();
  interval_us_ = interval_ms * 1000;
  next_draw_us_.store(start_us_ + interval_us_, std::memory_order_relaxed);
}

ProgressMeter::~ProgressMeter() { finish(); }

void ProgressMeter::tick(std::uint64_t delta) noexcept {
  if (!active_) return;
  done_.fetch_add(delta, std::memory_order_relaxed);
  // Per-item ticks (delta == 1) consult the clock only every 1024 calls —
  // they can come from loops whose body is tens of nanoseconds.  Batched
  // ticks are already rate-limited by their chunking, so they always check
  // the clock (a few thousand chunk-sized calls must not starve redraws).
  if (delta == 1 &&
      (calls_.fetch_add(1, std::memory_order_relaxed) & 0x3FF) != 0) {
    return;
  }
  const std::int64_t now = now_us();
  std::int64_t next = next_draw_us_.load(std::memory_order_relaxed);
  if (now < next) return;
  // One thread wins the redraw; losers skip.
  if (next_draw_us_.compare_exchange_strong(next, now + interval_us_,
                                            std::memory_order_relaxed)) {
    draw(/*final_line=*/false);
  }
}

void ProgressMeter::finish() noexcept {
  if (!active_) return;
  if (finished_.exchange(true, std::memory_order_relaxed)) return;
  if (drew_.load(std::memory_order_relaxed)) draw(/*final_line=*/true);
}

void ProgressMeter::draw(bool final_line) noexcept {
  drew_.store(true, std::memory_order_relaxed);
  const std::uint64_t done = done_.load(std::memory_order_relaxed);
  const double elapsed =
      static_cast<double>(now_us() - start_us_) * 1e-6;
  const double rate = elapsed > 0 ? static_cast<double>(done) / elapsed : 0.0;
  char rate_buf[32];
  format_rate(rate_buf, sizeof(rate_buf), rate);
  if (total_ > 0) {
    const double frac =
        static_cast<double>(done) / static_cast<double>(total_);
    char eta_buf[32];
    if (rate > 0 && done < total_) {
      std::snprintf(eta_buf, sizeof(eta_buf), "ETA %.0fs",
                    static_cast<double>(total_ - done) / rate);
    } else {
      std::snprintf(eta_buf, sizeof(eta_buf), "done");
    }
    std::fprintf(stderr, "\r[%s] %llu/%llu (%.1f%%) %s %s    ",
                 label_.c_str(), static_cast<unsigned long long>(done),
                 static_cast<unsigned long long>(total_), frac * 100.0,
                 rate_buf, eta_buf);
  } else {
    std::fprintf(stderr, "\r[%s] %llu %s    ", label_.c_str(),
                 static_cast<unsigned long long>(done), rate_buf);
  }
  if (final_line) std::fputc('\n', stderr);
  std::fflush(stderr);
}

}  // namespace ccmx::obs
