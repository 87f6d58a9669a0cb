// Writing half of the obs JSON support: a streaming Writer that renders
// RunReports, JSONL trace events and profile rows (no intermediate DOM,
// deterministic field order).  The parser that reads
// them back lives in obs/json_reader.hpp, in the offline library.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace ccmx::obs::json {

/// Escapes `raw` for inclusion inside a JSON string literal (quotes not
/// included).
[[nodiscard]] std::string escape(std::string_view raw);

/// Streaming JSON writer.  Nesting is tracked so a malformed emission
/// sequence trips a contract failure instead of producing garbage.
class Writer {
 public:
  explicit Writer(std::ostream& os) : os_(&os) {}

  Writer& begin_object();
  Writer& end_object();
  Writer& begin_array();
  Writer& end_array();

  /// Emits an object key; must be inside an object, before its value.
  Writer& key(std::string_view k);

  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(double d);
  Writer& value(std::uint64_t u);
  Writer& value(std::int64_t i);
  Writer& value(int i) { return value(static_cast<std::int64_t>(i)); }
  Writer& value(bool b);
  Writer& null();

 private:
  void prefix();  // comma / nesting bookkeeping before any value
  std::ostream* os_;
  // One frame per open container: 'o'/'a', plus whether a value was
  // already emitted (for comma placement) and whether a key is pending.
  struct Frame {
    char kind;
    bool saw_value = false;
    bool key_pending = false;
  };
  std::vector<Frame> stack_;
};

}  // namespace ccmx::obs::json
