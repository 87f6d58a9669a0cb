// Shared lexical front-end of the static-analysis passes (ccmx_lint and
// the arch analyzer): a token-level C++ scanner that splits each physical
// line into code / comment / string-literal streams, plus the
// `// ccmx-lint: allow(<rule>)` suppression extractor built on it.
//
// This is an internal header of src/lint — the public APIs live in
// lint/lint.hpp and lint/arch.hpp.
#pragma once

#include <cstddef>
#include <filesystem>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace ccmx::lint::detail {

/// One physical source line split into the three streams the rules care
/// about: code (string contents blanked, comments removed), comment text,
/// and the contents of string literals that start on this line.
struct ScannedLine {
  std::string code;
  std::string comment;
  std::vector<std::string> strings;
};

/// Lexes C++ text into per-line code/comment/string streams.  Handles
/// //, /* */, "..." with escapes, '...' char literals, and R"tag(...)tag"
/// raw strings (content attributed to the line the literal starts on).
[[nodiscard]] std::vector<ScannedLine> scan(std::string_view text);

[[nodiscard]] bool is_blank(std::string_view s);
[[nodiscard]] std::string trim(std::string_view s);

/// Collapses runs of whitespace to single spaces (R1 compares type
/// spellings such as "unsigned   int" in this form).
[[nodiscard]] std::string squash(std::string_view s);

/// Forward slashes, no leading "./" — the repo-relative path form every
/// finding reports.
[[nodiscard]] std::string normalize_path(std::string path);

/// Canonical rule name for an allow() token (lexical R1–R5, R7 and arch
/// A1–A6 names and aliases are both accepted); empty when unknown.
[[nodiscard]] std::string canonical_rule(std::string_view token);

/// Per-line suppression sets from `ccmx-lint: allow(a, b)` comments.
[[nodiscard]] std::vector<std::set<std::string>> suppressions(
    const std::vector<ScannedLine>& lines);

/// True when the allow() set on `line_no` (1-based) or the line above —
/// which includes a file-wide allow on line 1 — silences `rule`.
[[nodiscard]] bool is_suppressed(
    const std::vector<std::set<std::string>>& allow, std::size_t line_no,
    std::string_view rule);

/// The shared file walk: every .hpp/.cpp/.h/.cc under root/<subdir>,
/// skipping lint_fixtures, build, out, and hidden directories; sorted.
[[nodiscard]] std::vector<std::filesystem::path> collect_files(
    const std::filesystem::path& root, const std::vector<std::string>& subdirs);

/// Whole file as a string; throws util::contract_error when unreadable.
[[nodiscard]] std::string read_file(const std::filesystem::path& file);

}  // namespace ccmx::lint::detail
