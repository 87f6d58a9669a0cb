#include "obs/json.hpp"

#include <cmath>
#include <cstdio>

#include "util/require.hpp"

namespace ccmx::obs::json {

std::string escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        unsigned{static_cast<unsigned char>(c)});
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void Writer::prefix() {
  if (stack_.empty()) return;
  Frame& top = stack_.back();
  if (top.kind == 'o') {
    CCMX_REQUIRE(top.key_pending, "json: object value without a key");
    top.key_pending = false;
    return;  // comma was emitted with the key
  }
  if (top.saw_value) *os_ << ',';
  top.saw_value = true;
}

Writer& Writer::begin_object() {
  prefix();
  *os_ << '{';
  stack_.push_back({'o'});
  return *this;
}

Writer& Writer::end_object() {
  CCMX_REQUIRE(!stack_.empty() && stack_.back().kind == 'o' &&
                   !stack_.back().key_pending,
               "json: unbalanced end_object");
  stack_.pop_back();
  *os_ << '}';
  return *this;
}

Writer& Writer::begin_array() {
  prefix();
  *os_ << '[';
  stack_.push_back({'a'});
  return *this;
}

Writer& Writer::end_array() {
  CCMX_REQUIRE(!stack_.empty() && stack_.back().kind == 'a',
               "json: unbalanced end_array");
  stack_.pop_back();
  *os_ << ']';
  return *this;
}

Writer& Writer::key(std::string_view k) {
  CCMX_REQUIRE(!stack_.empty() && stack_.back().kind == 'o' &&
                   !stack_.back().key_pending,
               "json: key outside an object");
  Frame& top = stack_.back();
  if (top.saw_value) *os_ << ',';
  top.saw_value = true;
  top.key_pending = true;
  *os_ << '"' << escape(k) << "\":";
  return *this;
}

Writer& Writer::value(std::string_view s) {
  prefix();
  *os_ << '"' << escape(s) << '"';
  return *this;
}

Writer& Writer::value(double d) {
  prefix();
  if (!std::isfinite(d)) {
    *os_ << "null";  // JSON has no inf/nan
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  *os_ << buf;
  return *this;
}

Writer& Writer::value(std::uint64_t u) {
  prefix();
  *os_ << u;
  return *this;
}

Writer& Writer::value(std::int64_t i) {
  prefix();
  *os_ << i;
  return *this;
}

Writer& Writer::value(bool b) {
  prefix();
  *os_ << (b ? "true" : "false");
  return *this;
}

Writer& Writer::null() {
  prefix();
  *os_ << "null";
  return *this;
}

}  // namespace ccmx::obs::json
