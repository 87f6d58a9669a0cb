// Strict readers for the CCMX_* environment knobs.  Every knob enters
// through one of them, and each reads the whole value or none of it:
// "20ms" is not 20 and "97abc" is not 97.  A bad value prints one stderr
// line naming the variable, and the reader returns the knob's default.
#pragma once

#include <charconv>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <system_error>

namespace ccmx::util {

/// The integer knob `name`: `fallback` when it is unset or empty, its
/// value when that is a decimal integer in [lo, hi] (digits only, with
/// an optional leading '-'), and otherwise `fallback` after one stderr
/// line.
[[nodiscard]] inline std::int64_t env_int(const char* name, std::int64_t lo,
                                          std::int64_t hi,
                                          std::int64_t fallback) noexcept {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return fallback;
  const std::string_view text(raw);
  std::int64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec == std::errc{} && end == text.data() + text.size() && value >= lo &&
      value <= hi) {
    return value;
  }
  std::fprintf(stderr,
               "ccmx: ignoring %s=%s (want an integer in [%" PRId64
               ", %" PRId64 "]); using %" PRId64 "\n",
               name, raw, lo, hi, fallback);
  return fallback;
}

/// The on/off knob `name`: on for 1, true, on or yes; off when unset or
/// for "", 0, false, off or no; otherwise off after one stderr line.
[[nodiscard]] inline bool env_flag(const char* name) noexcept {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return false;
  const std::string_view v(raw);
  if (v == "1" || v == "true" || v == "on" || v == "yes") return true;
  if (v.empty() || v == "0" || v == "false" || v == "off" || v == "no") {
    return false;
  }
  std::fprintf(stderr,
               "ccmx: ignoring %s=%s (want 1, true, on or yes, or 0, false, "
               "off or no); using off\n",
               name, raw);
  return false;
}

}  // namespace ccmx::util
