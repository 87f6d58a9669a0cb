// Reading half of the obs JSON support: a small recursive-descent parser
// that tools and tests use to load and schema-check what json::Writer
// produced (run reports, bench diffs, trace and profile rows).
// Deliberately tiny: UTF-8 pass-through, doubles for all numbers,
// ordered object members.  Part of the offline library
// (ccmx_obs_offline); instrumented code only ever writes JSON.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace ccmx::obs::json {

/// Parsed JSON value (ordered object members, doubles for numbers).
struct Value {
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  [[nodiscard]] bool is_null() const noexcept { return kind == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind == Kind::kString;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind == Kind::kArray; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind == Kind::kObject;
  }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const noexcept;
};

/// Deepest array/object nesting parse() accepts.  The writers nest at
/// most five levels (the dashboard's data island around its run reports);
/// the cap bounds the parser's recursion so a hostile file cannot
/// overflow the stack.
inline constexpr std::size_t kMaxDepth = 256;

/// Parses a complete JSON document; throws util::contract_error on
/// malformed input, trailing garbage or nesting deeper than kMaxDepth.
[[nodiscard]] Value parse(std::string_view text);

/// Serializes a parsed Value back to compact JSON (member order
/// preserved, numbers in %.17g so parse(render(parse(x))) is stable).
/// The inverse of parse() up to insignificant whitespace — used to embed
/// loaded documents into other artifacts (e.g. the HTML dashboard's data
/// island).
[[nodiscard]] std::string render(const Value& value);

// Tolerant readers, for loaders that take what a document offers and
// default the rest: each returns `fallback` when `obj` has no member
// `key` or the member has another type.

[[nodiscard]] double number_or(const Value& obj, std::string_view key,
                               double fallback);

[[nodiscard]] std::string string_or(const Value& obj, std::string_view key,
                                    std::string_view fallback = {});

/// `value` truncated toward zero as an Int; nullopt when `value` is
/// null, not a number, or outside Int's range.  Casting such a double is
/// undefined behaviour, and a JSON number can be any double (1e999
/// parses as inf).
template <std::integral Int>
[[nodiscard]] std::optional<Int> integer(const Value* value) noexcept {
  if (value == nullptr || !value->is_number()) return std::nullopt;
  // 2^digits, exact as a double: Int holds every whole number in
  // [-2^digits, 2^digits) when signed and in [0, 2^digits) when not.
  constexpr double kLimit =
      2.0 * static_cast<double>(Int{1}
                                << (std::numeric_limits<Int>::digits - 1));
  constexpr double kLow = std::is_signed_v<Int> ? -kLimit : 0.0;
  if (!(value->number >= kLow && value->number < kLimit)) return std::nullopt;
  return static_cast<Int>(value->number);
}

/// Member `key` of `obj` read by integer<Int>, or `fallback` when it is
/// missing, not a number, or out of range.
template <std::integral Int>
[[nodiscard]] Int integer_or(const Value& obj, std::string_view key,
                             Int fallback) noexcept {
  return integer<Int>(obj.find(key)).value_or(fallback);
}

}  // namespace ccmx::obs::json
