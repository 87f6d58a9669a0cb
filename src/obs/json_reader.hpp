// Reading half of the obs JSON support: a small recursive-descent parser
// that tools and tests use to load and schema-check what json::Writer
// produced (run reports, bench diffs, trace, profile and
// timeseries rows).  Deliberately tiny: UTF-8 pass-through, doubles for
// all numbers, ordered object members.  Part of the offline library
// (ccmx_obs_offline); instrumented code only ever writes JSON.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
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

}  // namespace ccmx::obs::json
