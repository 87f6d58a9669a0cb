#include "obs/json_reader.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/json.hpp"
#include "util/narrow.hpp"
#include "util/require.hpp"

namespace ccmx::obs::json {

const Value* Value::find(std::string_view key) const noexcept {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

struct Parser {
  std::string_view text;
  std::size_t at = 0;
  std::size_t depth = 0;  // open arrays/objects around `at`

  [[noreturn]] void fail(const std::string& what) const {
    CCMX_REQUIRE(false, "json parse error at offset " + std::to_string(at) +
                            ": " + what);
    std::abort();  // unreachable (CCMX_REQUIRE throws)
  }

  void skip_ws() {
    while (at < text.size() && (text[at] == ' ' || text[at] == '\t' ||
                                text[at] == '\n' || text[at] == '\r')) {
      ++at;
    }
  }

  char peek() {
    if (at >= text.size()) fail("unexpected end of input");
    return text[at];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++at;
  }

  bool consume_literal(std::string_view lit) {
    if (text.substr(at, lit.size()) != lit) return false;
    at += lit.size();
    return true;
  }

  /// A UTF-8 code unit is a raw byte pattern: values >= 0x80 are *meant*
  /// to land on (possibly negative) char — re-encoding, not numeric
  /// narrowing, so the checked helpers do not apply.
  static char u8_byte(unsigned unit) {
    return static_cast<char>(unit);  // ccmx-lint: allow(narrow)
  }

  void append_codepoint(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += u8_byte(cp);
    } else if (cp < 0x800) {
      out += u8_byte(0xC0 | (cp >> 6));
      out += u8_byte(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += u8_byte(0xE0 | (cp >> 12));
      out += u8_byte(0x80 | ((cp >> 6) & 0x3F));
      out += u8_byte(0x80 | (cp & 0x3F));
    } else {
      out += u8_byte(0xF0 | (cp >> 18));
      out += u8_byte(0x80 | ((cp >> 12) & 0x3F));
      out += u8_byte(0x80 | ((cp >> 6) & 0x3F));
      out += u8_byte(0x80 | (cp & 0x3F));
    }
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++at;
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= util::narrow_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= util::narrow_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= util::narrow_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("bad \\u escape");
      }
    }
    return value;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = peek();
      ++at;
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = peek();
      ++at;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF && consume_literal("\\u")) {
            const unsigned low = parse_hex4();
            if (low >= 0xDC00 && low <= 0xDFFF) {
              cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
            } else {
              fail("unpaired surrogate");
            }
          }
          append_codepoint(out, cp);
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  double parse_number() {
    const std::size_t start = at;
    if (peek() == '-') ++at;
    while (at < text.size() &&
           ((text[at] >= '0' && text[at] <= '9') || text[at] == '.' ||
            text[at] == 'e' || text[at] == 'E' || text[at] == '+' ||
            text[at] == '-')) {
      ++at;
    }
    const std::string token(text.substr(start, at - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') fail("bad number");
    return value;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth == kMaxDepth) {
        fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
      }
      ++depth;
      Value v = c == '{' ? parse_object() : parse_array();
      --depth;
      return v;
    }
    Value v;
    if (c == '"') {
      v.kind = Value::Kind::kString;
      v.string = parse_string();
      return v;
    }
    if (consume_literal("true")) {
      v.kind = Value::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      v.kind = Value::Kind::kBool;
      v.boolean = false;
      return v;
    }
    if (consume_literal("null")) return v;
    v.kind = Value::Kind::kNumber;
    v.number = parse_number();
    return v;
  }

  Value parse_object() {
    ++at;
    Value v;
    v.kind = Value::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++at;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++at;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value parse_array() {
    ++at;
    Value v;
    v.kind = Value::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++at;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++at;
        continue;
      }
      expect(']');
      return v;
    }
  }
};

}  // namespace

Value parse(std::string_view text) {
  Parser parser{text};
  Value v = parser.parse_value();
  parser.skip_ws();
  CCMX_REQUIRE(parser.at == text.size(), "json: trailing garbage");
  return v;
}

namespace {

void render_to(const Value& value, std::string& out) {
  switch (value.kind) {
    case Value::Kind::kNull:
      out += "null";
      return;
    case Value::Kind::kBool:
      out += value.boolean ? "true" : "false";
      return;
    case Value::Kind::kNumber: {
      if (!std::isfinite(value.number)) {
        out += "null";  // JSON has no inf/nan (same policy as the Writer)
        return;
      }
      // Integral values render without an exponent or trailing ".0" so a
      // re-embedded counter still looks like the counter the Writer wrote.
      if (value.number == std::floor(value.number) &&
          std::abs(value.number) < 9.0e15) {
        out += std::to_string(static_cast<std::int64_t>(value.number));
        return;
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", value.number);
      out += buf;
      return;
    }
    case Value::Kind::kString:
      out += '"';
      out += escape(value.string);
      out += '"';
      return;
    case Value::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const Value& item : value.array) {
        if (!first) out += ',';
        first = false;
        render_to(item, out);
      }
      out += ']';
      return;
    }
    case Value::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : value.object) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += escape(key);
        out += "\":";
        render_to(member, out);
      }
      out += '}';
      return;
    }
  }
}

}  // namespace

double number_or(const Value& obj, std::string_view key, double fallback) {
  const Value* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->number : fallback;
}

std::string string_or(const Value& obj, std::string_view key,
                      std::string_view fallback) {
  const Value* v = obj.find(key);
  return v != nullptr && v->is_string() ? v->string : std::string(fallback);
}

std::string render(const Value& value) {
  std::string out;
  render_to(value, out);
  return out;
}

}  // namespace ccmx::obs::json
