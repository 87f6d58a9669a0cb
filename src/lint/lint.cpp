#include "lint/lint.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include "lint/scan.hpp"
#include "obs/json.hpp"
#include "obs/schemas.hpp"
#include "util/parallel.hpp"
#include "util/require.hpp"

namespace ccmx::lint {

namespace fs = std::filesystem;

using detail::is_blank;
using detail::ScannedLine;
using detail::squash;
using detail::trim;

namespace {

// ------------------------------------------------------- rule registry

const std::vector<RuleInfo>& all_rules() {
  // "r6" belonged to include-hygiene, now enforced by the
  // ccmx_header_hygiene build target; it is retired, not reused.
  static const std::vector<RuleInfo> kRules = {
      {"narrow", "r1",
       "no raw narrowing static_cast between integer types in src/ — use "
       "util/narrow.hpp"},
      {"require", "r2",
       "documented preconditions on inline header functions must be "
       "enforced with CCMX_REQUIRE"},
      {"schema", "r3",
       "ccmx.<name>/<version> schema strings must come from "
       "src/obs/schemas.hpp"},
      {"bench-main", "r4",
       "bench binaries register through CCMX_BENCH_MAIN only"},
      {"rng", "r5",
       "no rand()/std::mt19937/random_device outside util/rng — use seeded "
       "util::Xoshiro256"},
      {"signal-safety", "r7",
       "functions marked `ccmx-lint: signal-context` must not call "
       "non-async-signal-safe primitives (allocation, stdio, std::string, "
       "locks)"},
  };
  return kRules;
}

// --------------------------------------------------------- rule engine

struct FileContext {
  std::string path;  // repo-relative, forward slashes
  const std::vector<ScannedLine>& lines;
  const std::vector<std::set<std::string>>& allow;
  FileLint& out;

  /// Reports unless an allow(...) on this line or the line above (or a
  /// file-wide allow on line 1) silences the rule.
  void report(std::string_view rule, std::size_t line_no,
              std::string message) {
    if (detail::is_suppressed(allow, line_no, rule)) {
      ++out.suppressed;
      return;
    }
    Finding f;
    f.rule = std::string(rule);
    f.file = path;
    f.line = line_no;
    f.message = std::move(message);
    const std::size_t idx = line_no - 1;
    f.snippet = idx < lines.size() ? trim(lines[idx].code) : std::string();
    out.findings.push_back(std::move(f));
  }

  [[nodiscard]] bool in(std::string_view prefix) const {
    return path.rfind(prefix, 0) == 0;
  }
  [[nodiscard]] bool ends_with(std::string_view suffix) const {
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  }
};

// R1: raw static_cast to a narrow integer type.  "Narrow" = any integer
// type of 32 bits or fewer (casts to 64-bit types cannot drop bits from
// the sub-128-bit arithmetic this codebase does on its hot paths; casts
// *down* from them can, and those are the censuses-silently-wrong bugs).
void rule_narrow(FileContext& ctx) {
  if (!ctx.in("src/") || ctx.path == "src/util/narrow.hpp") return;
  // "unsigned char" is deliberately absent: static_cast<unsigned char>(c)
  // is the blessed <cctype>/byte-inspection idiom (same width as char, and
  // required before calling std::isspace & friends); numeric byte
  // narrowing still trips on the std::uint8_t spellings.
  static const std::set<std::string> kNarrowTargets = {
      "char",          "signed char",    "wchar_t",       "char8_t",
      "char16_t",      "char32_t",       "short",         "short int",
      "unsigned short", "int",           "unsigned",      "unsigned int",
      "std::int8_t",   "std::int16_t",   "std::int32_t",  "std::uint8_t",
      "std::uint16_t", "std::uint32_t",  "int8_t",        "int16_t",
      "int32_t",       "uint8_t",        "uint16_t",      "uint32_t",
  };
  static const std::regex kCast(R"(static_cast\s*<\s*([^<>();]+?)\s*>)");
  for (std::size_t i = 0; i < ctx.lines.size(); ++i) {
    const std::string& code = ctx.lines[i].code;
    for (std::sregex_iterator it(code.begin(), code.end(), kCast), end;
         it != end; ++it) {
      const std::string type = squash((*it)[1].str());
      if (kNarrowTargets.count(type) == 0) continue;
      ctx.report("narrow", i + 1,
                 "raw static_cast<" + type +
                     "> may narrow silently; use util::narrow (checked) or "
                     "util::narrow_cast (checked in debug)");
    }
  }
}

// R2: a doc comment that promises a throwing precondition must be backed
// by an enforcement in the inline body.  Declarations without a body in
// the header are skipped (the enforcement lives in the .cpp, which a
// lexical pass cannot see).
void rule_require(FileContext& ctx) {
  if (!ctx.in("src/") || !ctx.ends_with(".hpp")) return;
  static const std::regex kPrecondition(
      R"(\b[Tt]hrow(s|ing)\b|\b[Pp]recondition\b)");
  static const std::regex kEnforce(
      R"(CCMX_REQUIRE|CCMX_ASSERT|\bthrow\b|contract_failure)");
  static const std::regex kNonFunction(
      R"(^\s*(class|struct|enum|namespace|using|typedef|friend|#|public\s*:|private\s*:|protected\s*:))");

  const auto& lines = ctx.lines;
  std::size_t i = 0;
  while (i < lines.size()) {
    // A doc block: consecutive comment-only lines.
    if (lines[i].comment.empty() || !is_blank(lines[i].code)) {
      ++i;
      continue;
    }
    std::string doc;
    while (i < lines.size() && !lines[i].comment.empty() &&
           is_blank(lines[i].code)) {
      doc += lines[i].comment;
      doc += ' ';
      ++i;
    }
    if (!std::regex_search(doc, kPrecondition)) continue;
    while (i < lines.size() && is_blank(lines[i].code) &&
           lines[i].comment.empty()) {
      ++i;
    }
    if (i >= lines.size()) break;
    // Another comment-only line here means a *new* doc block follows (the
    // previous one was prose, e.g. a file header) — reprocess from it.
    if (is_blank(lines[i].code)) continue;
    if (std::regex_search(lines[i].code, kNonFunction)) continue;

    // Walk until we can classify: `;` at paren depth 0 before any body
    // brace = declaration (skip), `{` at paren depth 0 = inline body.  A
    // `{` only counts as a body after a parameter list `(` was seen, so
    // `namespace x {` / `class Y {` openers never read as functions.
    const std::size_t signature_line = i + 1;
    int paren = 0;
    int brace = 0;
    bool seen_paren = false;
    bool in_body = false;
    bool declaration = false;
    std::string body;
    std::size_t j = i;
    for (std::size_t guard = 0; j < lines.size() && guard < 300;
         ++j, ++guard) {
      for (const char c : lines[j].code) {
        if (!in_body) {
          if (c == '(') {
            ++paren;
            seen_paren = true;
          } else if (c == ')') {
            --paren;
          } else if (c == ';' && paren == 0) {
            declaration = true;
            break;
          } else if (c == '{' && paren == 0 && seen_paren) {
            in_body = true;
            brace = 1;
          }
        } else {
          if (c == '{') ++brace;
          if (c == '}' && --brace == 0) break;
          body.push_back(c);
        }
      }
      if (declaration || (in_body && brace == 0)) break;
    }
    i = j + 1;
    if (declaration || !in_body || brace != 0) continue;
    if (!std::regex_search(body, kEnforce)) {
      ctx.report("require", signature_line,
                 "doc comment documents a precondition but the inline body "
                 "has no CCMX_REQUIRE/CCMX_ASSERT/throw");
    }
  }
}

// R3: stray schema string literals.
void rule_schema(FileContext& ctx) {
  if (!ctx.in("src/") && !ctx.in("tools/") && !ctx.in("bench/")) return;
  if (ctx.path == "src/obs/schemas.hpp") return;
  static const std::regex kSchema(R"(ccmx\.[a-z0-9_]+/[0-9]+)");
  for (std::size_t i = 0; i < ctx.lines.size(); ++i) {
    for (const std::string& literal : ctx.lines[i].strings) {
      std::smatch m;
      if (std::regex_search(literal, m, kSchema)) {
        ctx.report("schema", i + 1,
                   "schema string \"" + m.str() +
                       "\" must be referenced through the "
                       "src/obs/schemas.hpp registry, not spelled inline");
      }
    }
  }
}

// R4: bench binaries must use CCMX_BENCH_MAIN (which prints tables, runs
// timings, and writes the RunReport) — a hand-rolled main silently loses
// the run report and the error-propagation contract.
void rule_bench_main(FileContext& ctx) {
  static const std::regex kIsBench(R"(^bench/bench_[^/]+\.cpp$)");
  if (!std::regex_match(ctx.path, kIsBench)) return;
  static const std::regex kMain(R"(\bint\s+main\s*\()");
  bool has_macro = false;
  for (std::size_t i = 0; i < ctx.lines.size(); ++i) {
    if (ctx.lines[i].code.find("CCMX_BENCH_MAIN") != std::string::npos) {
      has_macro = true;
    }
    if (std::regex_search(ctx.lines[i].code, kMain)) {
      ctx.report("bench-main", i + 1,
                 "bench binaries must not define main directly; use "
                 "CCMX_BENCH_MAIN");
    }
  }
  if (!has_macro) {
    ctx.report("bench-main", 1,
               "bench binary does not register through CCMX_BENCH_MAIN");
  }
}

// R5: unvetted randomness.  Everything stochastic in this repo must be
// reproducible from an explicit seed (tables are compared byte-for-byte),
// so the C PRNG and ad-hoc <random> engines are banned outside util/rng.
void rule_rng(FileContext& ctx) {
  if (ctx.path == "src/util/rng.hpp" || ctx.path == "src/util/rng.cpp") {
    return;
  }
  static const std::regex kBanned(
      R"(\bstd\s*::\s*s?rand\b|(^|[^:_\w])s?rand\s*\(|\bmt19937(_64)?\b|\brandom_device\b)");
  for (std::size_t i = 0; i < ctx.lines.size(); ++i) {
    if (std::regex_search(ctx.lines[i].code, kBanned)) {
      ctx.report("rng", i + 1,
                 "unseeded/unvetted randomness; route through util/rng "
                 "(util::Xoshiro256 with an explicit seed)");
    }
  }
}

// R7: lexical async-signal-safety.  A `// ccmx-lint: signal-context`
// marker line annotates the NEXT function as running inside a signal
// handler (the profiler's SIGPROF path): from the marker, the rule
// finds the first `{` that follows a parameter list and walks the body
// to its matching `}`, flagging the classic non-async-signal-safe
// denylist inside — allocation, stdio formatting, std::string
// construction, locks.  Lexical by design like every rule here: it
// cannot see through calls, but it catches the accidental printf
// debugging or std::string temporary that turns a working handler into
// a rare deadlock.  The opt-in marker keeps the scope exact, and
// `ccmx-lint: allow(signal-safety)` still silences a deliberate hit.
void rule_signal_safety(FileContext& ctx) {
  // Anchored: the marker is the comment's ENTIRE content, so prose that
  // merely mentions the marker (this rule's own docs, say) never arms
  // the rule.
  static const std::regex kMarker(R"(^\s*ccmx-lint:\s*signal-context\s*$)");
  struct Banned {
    const char* what;
    std::regex re;
  };
  static const std::vector<Banned> kDenied = [] {
    std::vector<Banned> d;
    d.push_back({"heap allocation",
                 std::regex(R"(\b(malloc|calloc|realloc|free)\s*\()")});
    d.push_back({"operator new/delete", std::regex(R"(\bnew\b|\bdelete\b)")});
    d.push_back(
        {"stdio formatting",
         std::regex(R"(\b((v|f|s|sn|vsn)?printf|puts|fputs|fwrite)\s*\()")});
    d.push_back({"std::string construction",
                 std::regex(
                     R"(\bstd\s*::\s*(string|to_string|[io]?stringstream)\b)")});
    d.push_back(
        {"locking",
         std::regex(
             R"(\b(mutex|lock_guard|unique_lock|scoped_lock|condition_variable)\b|\.lock\s*\(|\.unlock\s*\()")});
    return d;
  }();

  const auto& lines = ctx.lines;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!std::regex_match(lines[i].comment, kMarker)) continue;
    // Locate the marked function's body: first `{` at paren depth 0
    // after a parameter list, then brace-match to its close.  The guard
    // bounds runaway scans over a marker with no function after it.
    int paren = 0;
    int brace = 0;
    bool seen_paren = false;
    bool in_body = false;
    std::size_t j = i + 1;
    for (std::size_t guard = 0; j < lines.size() && guard < 400;
         ++j, ++guard) {
      bool line_in_body = in_body;
      for (const char c : lines[j].code) {
        if (!in_body) {
          if (c == '(') {
            ++paren;
            seen_paren = true;
          } else if (c == ')') {
            --paren;
          } else if (c == '{' && paren == 0 && seen_paren) {
            in_body = true;
            line_in_body = true;
            brace = 1;
          }
        } else {
          if (c == '{') ++brace;
          if (c == '}' && --brace == 0) break;
        }
      }
      if (line_in_body) {
        for (const Banned& banned : kDenied) {
          if (std::regex_search(lines[j].code, banned.re)) {
            ctx.report("signal-safety", j + 1,
                       std::string(banned.what) +
                           " in a signal-context function is not "
                           "async-signal-safe");
          }
        }
      }
      if (in_body && brace == 0) break;
    }
    if (j > i) i = j;  // resume after the body; never rescan it
  }
}

}  // namespace

const std::vector<RuleInfo>& rules() { return all_rules(); }

const std::vector<std::string>& default_subdirs() {
  static const std::vector<std::string> kSubdirs = {"src", "bench", "tools",
                                                    "tests", "examples"};
  return kSubdirs;
}

FileLint lint_text(std::string_view rel_path, std::string_view text) {
  FileLint out;
  const std::vector<ScannedLine> lines = detail::scan(text);
  const std::vector<std::set<std::string>> allow =
      detail::suppressions(lines);
  FileContext ctx{detail::normalize_path(std::string(rel_path)), lines, allow,
                  out};
  for (void (*pass)(FileContext&) :
       {rule_narrow, rule_require, rule_schema, rule_bench_main, rule_rng,
        rule_signal_safety}) {
    pass(ctx);
  }
  std::sort(out.findings.begin(), out.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
            });
  return out;
}

namespace detail {

std::vector<fs::path> collect_files(const fs::path& root,
                                    const std::vector<std::string>& subdirs) {
  std::vector<fs::path> files;
  for (const std::string& subdir : subdirs) {
    const fs::path dir = root / subdir;
    if (!fs::is_directory(dir)) continue;
    auto it = fs::recursive_directory_iterator(dir);
    for (const auto end = fs::end(it); it != end; ++it) {
      const fs::path& p = it->path();
      const std::string name = p.filename().string();
      if (it->is_directory()) {
        if (name == "lint_fixtures" || name == "build" || name == "out" ||
            (name.size() > 1 && name[0] == '.')) {
          it.disable_recursion_pending();
        }
        continue;
      }
      const std::string ext = p.extension().string();
      if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc") {
        files.push_back(p);
      }
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string read_file(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  CCMX_REQUIRE(in.is_open(), "cannot read " + file.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace detail

RunResult run_lint(const RunOptions& options) {
  const fs::path root(options.root);
  CCMX_REQUIRE(fs::is_directory(root),
               "lint root is not a directory: " + options.root);
  const std::vector<fs::path> files =
      detail::collect_files(root, options.subdirs);

  // Files are linted concurrently into per-index slots; the merge below
  // walks the slots in sorted path order, so findings and counts are
  // independent of the parallel degree.
  std::vector<FileLint> lints(files.size());
  util::parallel_for(0, files.size(), [&](std::size_t i) {
    const std::string rel = detail::normalize_path(
        fs::relative(files[i], root).generic_string());
    lints[i] = lint_text(rel, detail::read_file(files[i]));
  });

  RunResult result;
  for (FileLint& lint : lints) {
    ++result.files_scanned;
    result.suppressed += lint.suppressed;
    std::move(lint.findings.begin(), lint.findings.end(),
              std::back_inserter(result.findings));
  }
  return result;
}

std::string render_lint_report_json(const RunResult& result,
                                    const RunOptions& options) {
  std::ostringstream os;
  obs::json::Writer w(os);
  w.begin_object();
  w.key("schema").value(obs::kLintReportSchema);
  w.key("root").value(options.root);
  w.key("subdirs").begin_array();
  for (const std::string& s : options.subdirs) w.value(s);
  w.end_array();
  w.key("files_scanned").value(std::uint64_t{result.files_scanned});
  w.key("suppressed").value(std::uint64_t{result.suppressed});
  std::map<std::string, std::uint64_t> counts;
  for (const RuleInfo& rule : all_rules()) counts[std::string(rule.name)] = 0;
  for (const Finding& f : result.findings) ++counts[f.rule];
  w.key("counts").begin_object();
  for (const auto& [rule, count] : counts) w.key(rule).value(count);
  w.end_object();
  w.key("findings").begin_array();
  for (const Finding& f : result.findings) {
    w.begin_object();
    w.key("rule").value(f.rule);
    w.key("file").value(f.file);
    w.key("line").value(std::uint64_t{f.line});
    w.key("message").value(f.message);
    w.key("snippet").value(f.snippet);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
  return os.str();
}

std::vector<std::string> validate_lint_report(const obs::json::Value& doc) {
  std::vector<std::string> problems;
  if (!doc.is_object()) {
    problems.emplace_back("document is not an object");
    return problems;
  }
  const obs::json::Value* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string()) {
    problems.emplace_back("missing string \"schema\"");
  } else if (schema->string != obs::kLintReportSchema) {
    problems.push_back("schema is \"" + schema->string + "\", expected \"" +
                       std::string(obs::kLintReportSchema) + "\"");
  }
  for (const char* key : {"files_scanned", "suppressed"}) {
    const obs::json::Value* v = doc.find(key);
    if (v == nullptr || !v->is_number()) {
      problems.push_back(std::string("missing number \"") + key + "\"");
    }
  }
  const obs::json::Value* findings = doc.find("findings");
  if (findings == nullptr || !findings->is_array()) {
    problems.emplace_back("missing array \"findings\"");
    return problems;
  }
  for (std::size_t i = 0; i < findings->array.size(); ++i) {
    const obs::json::Value& f = findings->array[i];
    const std::string where = "findings[" + std::to_string(i) + "]";
    if (!f.is_object()) {
      problems.push_back(where + " is not an object");
      continue;
    }
    for (const char* key : {"rule", "file", "message", "snippet"}) {
      const obs::json::Value* v = f.find(key);
      if (v == nullptr || !v->is_string()) {
        problems.push_back(where + " missing string \"" + key + "\"");
      }
    }
    const obs::json::Value* line = f.find("line");
    if (line == nullptr || !line->is_number()) {
      problems.push_back(where + " missing number \"line\"");
    }
  }
  return problems;
}

}  // namespace ccmx::lint
