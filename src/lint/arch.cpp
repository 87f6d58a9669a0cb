#include "lint/arch.hpp"

#include <algorithm>
#include <filesystem>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "lint/scan.hpp"
#include "obs/json.hpp"
#include "obs/schemas.hpp"
#include "util/parallel.hpp"
#include "util/require.hpp"

namespace ccmx::lint {

namespace fs = std::filesystem;

using detail::is_blank;
using detail::ScannedLine;
using detail::trim;

namespace {

// --------------------------------------------------- declared layering

/// One declared module: its layer rank and the modules it is allowed to
/// include.  This table IS the architecture — adding a module or an edge
/// means editing it, which is exactly the review event A3 exists to force.
struct ModuleSpec {
  std::string_view name;
  int layer;
  bool allow_all;  // top band: tools/tests/bench/examples may include anything
  std::vector<std::string_view> deps;
};

constexpr int kTopLayer = 7;

const std::vector<ModuleSpec>& module_specs() {
  static const std::vector<ModuleSpec> kSpecs = {
      {"util", 0, false, {}},
      {"bigint", 1, false, {"util"}},
      {"linalg", 2, false, {"util", "bigint"}},
      {"core", 3, false, {"util", "bigint", "linalg", "comm"}},
      {"comm", 3, false, {"util", "bigint", "linalg"}},
      {"protocols", 4, false, {"util", "bigint", "linalg", "comm"}},
      {"vlsi", 4, false, {"util", "bigint", "linalg"}},
      {"obs", 5, false, {"util"}},
      {"lint", 6, false, {"util", "obs"}},
      {"tools", kTopLayer, true, {}},
      {"tests", kTopLayer, true, {}},
      {"bench", kTopLayer, true, {}},
      {"examples", kTopLayer, true, {}},
  };
  return kSpecs;
}

const ModuleSpec* find_spec(std::string_view module) {
  for (const ModuleSpec& spec : module_specs()) {
    if (spec.name == module) return &spec;
  }
  return nullptr;
}

/// The compile-out macro surface of obs: the only headers through which
/// a lower layer may reach up into the instrumentation module.  All
/// three stub to inline no-ops under -DCCMX_OBS=OFF, so the dependency
/// vanishes in an obs-free build — which is what makes it legal.
bool is_macro_surface(std::string_view header_rel) {
  return header_rel == "src/obs/obs.hpp" ||
         header_rel == "src/obs/progress.hpp" ||
         header_rel == "src/obs/profiler.hpp";
}

/// "src/core/census.cpp" -> "core"; "tools/ccmx_lint.cpp" -> "tools";
/// a file sitting directly in src/ maps to the pseudo-module "src"
/// (unknown, so A3 flags every edge touching it).
std::string module_of(std::string_view rel) {
  const std::size_t slash = rel.find('/');
  if (slash == std::string_view::npos) return "src";
  const std::string_view top = rel.substr(0, slash);
  if (top != "src") return std::string(top);
  const std::size_t second = rel.find('/', slash + 1);
  if (second == std::string_view::npos) return "src";
  return std::string(rel.substr(slash + 1, second - slash - 1));
}

// -------------------------------------------------- per-file indexing

struct IncludeRef {
  std::size_t line = 0;     // 1-based
  std::string spelled;      // the quoted path as written
  std::string resolved;     // repo-relative path; empty = external
};

struct ExportSym {
  enum class Kind { kFunction, kType, kAlias, kMacro, kValue };
  std::string name;
  std::size_t line = 0;
  Kind kind = Kind::kValue;
};

struct FileData {
  std::string rel;     // repo-relative path, forward slashes
  std::string module;  // module_of(rel)
  bool is_header = false;
  std::vector<ScannedLine> lines;
  std::vector<std::set<std::string>> allow;
  std::vector<IncludeRef> includes;
  /// Identifier -> occurrence count over the code stream, #include
  /// lines excluded (so a header's path tokens never read as symbol
  /// references).
  std::unordered_map<std::string, std::size_t> idents;
  std::vector<ExportSym> exports;  // headers only
  /// Names of file-scope (namespace-scope) mutable variables: non-const,
  /// non-atomic, no synchronization primitive in the declaration.
  std::vector<std::string> mutable_state;
};

bool is_keyword(std::string_view t) {
  static const std::unordered_set<std::string_view> kKeywords = {
      "if",        "else",     "for",       "while",    "switch",
      "return",    "sizeof",   "alignof",   "alignas",  "decltype",
      "static_assert",         "catch",     "noexcept", "operator",
      "new",       "delete",   "throw",     "defined",  "requires",
      "typeid",    "case",     "goto",      "do",       "int",
      "bool",      "char",     "float",     "double",   "void",
      "auto",      "long",     "short",     "unsigned", "signed",
      "const",     "constexpr","consteval", "constinit","static",
      "inline",    "extern",   "mutable",   "virtual",  "explicit",
      "friend",    "public",   "private",   "protected","class",
      "struct",    "enum",     "union",     "namespace","using",
      "typedef",   "template", "typename",  "this",     "nullptr",
      "true",      "false",    "default",   "override", "final",
      "try",       "concept",  "export",    "co_await", "co_return",
      "co_yield",  "wchar_t",  "char8_t",   "char16_t", "char32_t",
  };
  return kKeywords.count(t) != 0;
}

/// Removes `template <...>` prefixes from a declaration buffer and
/// collects the parameter names so `Acc(...)` inside the signature of a
/// `template <class Acc>` never reads as a declaration of Acc.
std::string strip_templates(const std::string& buf,
                            std::set<std::string>& tparams) {
  std::string out;
  std::size_t i = 0;
  static const std::regex kParam(R"((?:class|typename)(?:\.\.\.)?\s+([A-Za-z_]\w*))");
  while (i < buf.size()) {
    if (buf.compare(i, 8, "template") == 0 &&
        (i + 8 >= buf.size() ||
         (std::isalnum(static_cast<unsigned char>(buf[i + 8])) == 0 &&
          buf[i + 8] != '_'))) {
      std::size_t j = i + 8;
      while (j < buf.size() && std::isspace(static_cast<unsigned char>(buf[j])) != 0) {
        ++j;
      }
      if (j < buf.size() && buf[j] == '<') {
        int depth = 0;
        std::size_t k = j;
        for (; k < buf.size(); ++k) {
          if (buf[k] == '<') ++depth;
          if (buf[k] == '>' && --depth == 0) break;
        }
        const std::string params = buf.substr(j, k - j);
        for (std::sregex_iterator it(params.begin(), params.end(), kParam),
             end;
             it != end; ++it) {
          tparams.insert((*it)[1].str());
        }
        i = k < buf.size() ? k + 1 : buf.size();
        continue;
      }
    }
    out.push_back(buf[i]);
    ++i;
  }
  return out;
}

/// First identifier followed by '(' that plausibly names the declared
/// function: not a keyword or template parameter, not qualified
/// (preceded by "::", '.', "->") and not a destructor ('~').
std::string function_candidate(const std::string& buf,
                               const std::set<std::string>& tparams) {
  std::size_t i = 0;
  while (i < buf.size()) {
    const unsigned char c = static_cast<unsigned char>(buf[i]);
    if (std::isalpha(c) == 0 && buf[i] != '_') {
      ++i;
      continue;
    }
    const std::size_t start = i;
    while (i < buf.size() &&
           (std::isalnum(static_cast<unsigned char>(buf[i])) != 0 ||
            buf[i] == '_')) {
      ++i;
    }
    const std::string tok = buf.substr(start, i - start);
    std::size_t j = i;
    while (j < buf.size() &&
           std::isspace(static_cast<unsigned char>(buf[j])) != 0) {
      ++j;
    }
    if (j >= buf.size() || buf[j] != '(') continue;
    bool qualified = false;
    if (start > 0) {
      const char prev = buf[start - 1];
      if (prev == ':' || prev == '.' || prev == '~' ||
          (prev == '>' && start > 1 && buf[start - 2] == '-')) {
        qualified = true;
      }
    }
    if (qualified || is_keyword(tok) || tparams.count(tok) != 0) continue;
    return tok;
  }
  return {};
}

/// Identifier immediately preceding the first '=' / '{' initializer (or
/// the end of the buffer for a plain `type name` declaration), skipping
/// a trailing `[...]` array extent.
std::string value_candidate(const std::string& buf) {
  std::size_t stop = buf.size();
  for (std::size_t i = 0; i < buf.size(); ++i) {
    if (buf[i] == '=' || buf[i] == '{') {
      stop = i;
      break;
    }
  }
  std::size_t e = stop;
  while (e > 0 && std::isspace(static_cast<unsigned char>(buf[e - 1])) != 0) {
    --e;
  }
  if (e > 0 && buf[e - 1] == ']') {  // skip the array extent
    while (e > 0 && buf[e - 1] != '[') --e;
    if (e > 0) --e;
    while (e > 0 && std::isspace(static_cast<unsigned char>(buf[e - 1])) != 0) {
      --e;
    }
  }
  const std::size_t end = e;
  while (e > 0 && (std::isalnum(static_cast<unsigned char>(buf[e - 1])) != 0 ||
                   buf[e - 1] == '_')) {
    --e;
  }
  if (e == end) return {};
  if (e > 0 && buf[e - 1] == ':') return {};  // qualified: a definition
  const std::string tok = buf.substr(e, end - e);
  if (is_keyword(tok)) return {};
  return tok;
}

bool has_token(const std::string& buf, std::string_view token) {
  std::size_t pos = 0;
  while ((pos = buf.find(token.data(), pos, token.size())) !=
         std::string::npos) {
    const bool left_ok =
        pos == 0 || (std::isalnum(static_cast<unsigned char>(buf[pos - 1])) ==
                         0 &&
                     buf[pos - 1] != '_');
    const std::size_t after = pos + token.size();
    const bool right_ok =
        after >= buf.size() ||
        (std::isalnum(static_cast<unsigned char>(buf[after])) == 0 &&
         buf[after] != '_');
    if (left_ok && right_ok) return true;
    ++pos;
  }
  return false;
}

/// Tokens whose presence in a namespace-scope declaration mean the
/// variable is not unguarded mutable state (immutable, per-thread, or a
/// synchronization object itself).
bool declares_safe_state(const std::string& buf) {
  for (const std::string_view safe :
       {"const", "constexpr", "constinit", "atomic", "mutex", "shared_mutex",
        "once_flag", "condition_variable", "thread_local", "using",
        "typedef"}) {
    if (has_token(buf, safe)) return true;
  }
  return false;
}

enum class Scope { kNamespace, kType, kFunction, kOther };

Scope classify_brace(const std::string& buf) {
  if (has_token(buf, "namespace")) return Scope::kNamespace;
  if (buf.find(')') != std::string::npos) return Scope::kFunction;
  if (has_token(buf, "class") || has_token(buf, "struct") ||
      has_token(buf, "union") || has_token(buf, "enum")) {
    return Scope::kType;
  }
  return Scope::kOther;
}

/// Walks one file's code stream with a scope stack and harvests the
/// declarations visible to includers: types, aliases, macros, functions,
/// and values at namespace/class scope.  private:/protected: sections of
/// a class are tracked and not exported — a private helper is interface
/// to nobody.  Also records namespace-scope mutable variables for the
/// thread-safety rule.  Token-level: the documented failure modes
/// (docs/STATIC_ANALYSIS.md) are extra value exports from
/// expression-like declarations, never missed braces.
void index_declarations(FileData& fd) {
  static const std::regex kDefine(R"(^\s*#\s*define\s+([A-Za-z_]\w*))");
  static const std::regex kType(
      R"((?:class|struct|union|enum)(?:\s+(?:class|struct))?\s+([A-Za-z_]\w*))");
  static const std::regex kAlias(R"(using\s+([A-Za-z_]\w*)\s*=)");
  static const std::regex kAccess(
      R"((?:^|[^:\w])(public|private|protected)\s*:(?!:))");

  struct ScopeFrame {
    Scope kind;
    bool access_public;  // meaningful for kType frames only
  };
  std::vector<ScopeFrame> scopes;
  const auto current = [&] {
    return scopes.empty() ? Scope::kNamespace : scopes.back().kind;
  };
  const auto exporting = [&] {
    return current() == Scope::kNamespace || current() == Scope::kType;
  };
  const auto visible = [&] {
    if (current() == Scope::kNamespace) return true;
    return scopes.back().access_public;
  };

  std::string buf;
  std::size_t buf_line = 1;

  const auto add_export = [&](std::string name, std::size_t line,
                              ExportSym::Kind kind) {
    if (name.empty() || is_keyword(name)) return;
    fd.exports.push_back({std::move(name), line, kind});
  };

  const auto harvest = [&](bool at_brace, Scope brace_kind) {
    // Access labels live in the buffer ahead of the declaration they
    // govern; the last one wins and persists for the rest of the class.
    if (current() == Scope::kType) {
      std::string label;
      for (std::sregex_iterator it(buf.begin(), buf.end(), kAccess), end;
           it != end; ++it) {
        label = (*it)[1].str();
      }
      if (!label.empty()) scopes.back().access_public = label == "public";
    }
    if (is_blank(buf)) return;
    const bool exported_here = fd.is_header && visible();
    std::set<std::string> tparams;
    const std::string decl = strip_templates(buf, tparams);
    if (exported_here) {
      for (std::sregex_iterator it(decl.begin(), decl.end(), kType), end;
           it != end; ++it) {
        add_export((*it)[1].str(), buf_line, ExportSym::Kind::kType);
      }
      std::smatch alias;
      if (std::regex_search(decl, alias, kAlias)) {
        add_export(alias[1].str(), buf_line, ExportSym::Kind::kAlias);
      }
    }
    const std::size_t eq = decl.find('=');
    const std::size_t paren = decl.find('(');
    const bool function_like =
        paren != std::string::npos &&
        (eq == std::string::npos || paren < eq) &&
        !has_token(decl, "typedef");
    if (at_brace && brace_kind == Scope::kFunction) {
      if (exported_here) {
        add_export(function_candidate(decl, tparams), buf_line,
                   ExportSym::Kind::kFunction);
      }
      return;
    }
    if (at_brace && brace_kind != Scope::kOther) return;  // ns/type opener
    if (function_like) {
      if (exported_here) {
        add_export(function_candidate(decl, tparams), buf_line,
                   ExportSym::Kind::kFunction);
      }
      return;
    }
    // A value declaration (possibly with a brace initializer when
    // at_brace): `type name;`, `... name = init;`, `... name[] = {...}`.
    const std::string name = value_candidate(decl);
    if (name.empty()) return;
    if (exported_here) add_export(name, buf_line, ExportSym::Kind::kValue);
    if (current() == Scope::kNamespace && !declares_safe_state(decl)) {
      fd.mutable_state.push_back(name);
    }
  };

  bool continued_pp = false;
  for (std::size_t i = 0; i < fd.lines.size(); ++i) {
    const std::string& code = fd.lines[i].code;
    const std::string t = trim(code);
    const bool pp = continued_pp || (!t.empty() && t[0] == '#');
    if (pp) {
      continued_pp = !t.empty() && t.back() == '\\';
      std::smatch m;
      if (!continued_pp || t.rfind("#", 0) == 0) {
        if (fd.is_header && std::regex_search(code, m, kDefine)) {
          add_export(m[1].str(), i + 1, ExportSym::Kind::kMacro);
        }
      }
      continue;
    }
    for (const char c : code) {
      if (c == '{') {
        const Scope kind = classify_brace(buf);
        if (exporting()) harvest(true, kind);
        // `class` sections start private; struct/union/enum-class public.
        const bool starts_public =
            !has_token(buf, "class") || has_token(buf, "enum");
        scopes.push_back({kind, starts_public});
        buf.clear();
      } else if (c == '}') {
        if (!scopes.empty()) scopes.pop_back();
        buf.clear();
      } else if (c == ';') {
        if (exporting()) harvest(false, Scope::kOther);
        buf.clear();
      } else if (exporting()) {
        if (is_blank(buf) &&
            std::isspace(static_cast<unsigned char>(c)) == 0) {
          buf_line = i + 1;
        }
        buf.push_back(c);
      }
    }
    buf.push_back(' ');  // line break separates tokens
  }
}

/// Extracts quoted #include directives and the identifier counts of the
/// remaining code lines.
void index_tokens(FileData& fd) {
  static const std::regex kInclude(R"(^\s*#\s*include\s*"")");
  static const std::regex kIdent(R"([A-Za-z_]\w*)");
  for (std::size_t i = 0; i < fd.lines.size(); ++i) {
    const std::string& code = fd.lines[i].code;
    if (std::regex_search(code, kInclude)) {
      if (!fd.lines[i].strings.empty()) {
        fd.includes.push_back({i + 1, fd.lines[i].strings.front(), {}});
      }
      continue;  // a header path is not a symbol reference
    }
    for (std::sregex_iterator it(code.begin(), code.end(), kIdent), end;
         it != end; ++it) {
      ++fd.idents[it->str()];
    }
  }
}

/// Resolves a spelled include against the scanned tree: src/-relative
/// (the -I${CMAKE_SOURCE_DIR}/src form every library include uses), then
/// relative to the including file, then repo-root-relative.
std::string resolve_include(const std::string& spelled,
                            const std::string& includer_rel,
                            const std::set<std::string>& all_rels) {
  const std::string as_src = "src/" + spelled;
  if (all_rels.count(as_src) != 0) return as_src;
  const std::size_t slash = includer_rel.rfind('/');
  if (slash != std::string::npos) {
    const std::string sibling = includer_rel.substr(0, slash + 1) + spelled;
    if (all_rels.count(sibling) != 0) return sibling;
  }
  if (all_rels.count(spelled) != 0) return spelled;
  return {};
}

/// "src/lint/arch.hpp" -> "src/lint/arch.cpp" (the paired TU a header's
/// exports are implemented in).
std::string paired_source(const std::string& header_rel) {
  const std::size_t dot = header_rel.rfind('.');
  if (dot == std::string::npos) return {};
  return header_rel.substr(0, dot) + ".cpp";
}

/// Locates the definition body of `name` in a file's code stream: an
/// occurrence of `name` (possibly Class::qualified) whose parameter list
/// closes and then reaches `{` — a trailing `;` / `)` / `,` / `=` means
/// a declaration or a call, not a definition.
std::string find_definition_body(const FileData& fd,
                                 const std::string& name) {
  std::string text;
  for (const ScannedLine& line : fd.lines) {
    text += line.code;
    text += '\n';
  }
  std::size_t pos = 0;
  while ((pos = text.find(name, pos)) != std::string::npos) {
    const std::size_t start = pos;
    pos += name.size();
    if (start > 0) {
      const unsigned char prev = static_cast<unsigned char>(text[start - 1]);
      if (std::isalnum(prev) != 0 || prev == '_' || prev == '.' ||
          (prev == '>' && start > 1 && text[start - 2] == '-')) {
        continue;  // longer identifier, or a member-call site
      }
    }
    std::size_t j = start + name.size();
    while (j < text.size() &&
           std::isspace(static_cast<unsigned char>(text[j])) != 0) {
      ++j;
    }
    if (j >= text.size() || text[j] != '(') continue;
    int depth = 0;
    std::size_t k = j;
    for (; k < text.size(); ++k) {
      if (text[k] == '(') ++depth;
      if (text[k] == ')' && --depth == 0) break;
    }
    if (k >= text.size()) break;
    ++k;
    bool take = false;
    for (; k < text.size(); ++k) {
      const char c = text[k];
      if (c == '{') {
        take = true;
        break;
      }
      if (c == ';' || c == ')' || c == ',' || c == '=') break;
    }
    if (!take) continue;
    int brace = 0;
    std::string body;
    for (; k < text.size(); ++k) {
      if (text[k] == '{' && ++brace == 1) continue;
      if (text[k] == '}' && --brace == 0) break;
      body.push_back(text[k]);
    }
    return body;
  }
  return {};
}

// ------------------------------------------------------- rule reporting

struct Occurrence {
  const FileData* file = nullptr;
  std::size_t line = 0;
};

struct Reporter {
  ArchResult& out;

  void report(std::string_view rule, const FileData& fd, std::size_t line,
              std::string message) {
    if (detail::is_suppressed(fd.allow, line, rule)) {
      ++out.suppressed;
      return;
    }
    Finding f;
    f.rule = std::string(rule);
    f.file = fd.rel;
    f.line = line;
    f.message = std::move(message);
    const std::size_t idx = line - 1;
    f.snippet =
        idx < fd.lines.size() ? trim(fd.lines[idx].code) : std::string();
    // The lexer routes the include path into the string stream, leaving
    // `#include ""` in the code stream; splice the path back so snippets
    // are readable.
    if (idx < fd.lines.size() && !fd.lines[idx].strings.empty()) {
      const std::size_t quotes = f.snippet.find("\"\"");
      if (quotes != std::string::npos) {
        f.snippet.insert(quotes + 1, fd.lines[idx].strings.front());
      }
    }
    out.findings.push_back(std::move(f));
  }

  /// Edge-shaped findings anchor at the first occurrence that is not
  /// individually suppressed; when every occurrence carries an allow()
  /// the whole finding counts as suppressed once.
  void report_at_first(std::string_view rule,
                       const std::vector<Occurrence>& occurrences,
                       const std::string& message) {
    for (const Occurrence& occ : occurrences) {
      if (detail::is_suppressed(occ.file->allow, occ.line, rule)) continue;
      report(rule, *occ.file, occ.line, message);
      return;
    }
    if (!occurrences.empty()) ++out.suppressed;
  }
};

// ------------------------------------------------- A1..A3 module graph

using EdgeMap = std::map<std::pair<std::string, std::string>,
                         std::vector<Occurrence>>;

/// Tarjan strongly-connected components over the module graph; returns
/// the components with more than one module, each sorted.
std::vector<std::vector<std::string>> cycles_of(
    const std::map<std::string, std::set<std::string>>& graph) {
  std::vector<std::string> nodes;
  for (const auto& [node, _] : graph) nodes.push_back(node);
  std::map<std::string, std::size_t> index;
  std::map<std::string, std::size_t> low;
  std::map<std::string, bool> on_stack;
  std::vector<std::string> stack;
  std::vector<std::vector<std::string>> sccs;
  std::size_t counter = 0;

  struct Frame {
    std::string node;
    std::vector<std::string> succ;
    std::size_t next = 0;
  };

  for (const std::string& root : nodes) {
    if (index.count(root) != 0) continue;
    std::vector<Frame> frames;
    const auto open = [&](const std::string& n) {
      index[n] = low[n] = counter++;
      stack.push_back(n);
      on_stack[n] = true;
      Frame fr;
      fr.node = n;
      const auto it = graph.find(n);
      if (it != graph.end()) {
        fr.succ.assign(it->second.begin(), it->second.end());
      }
      frames.push_back(std::move(fr));
    };
    open(root);
    while (!frames.empty()) {
      Frame& fr = frames.back();
      if (fr.next < fr.succ.size()) {
        const std::string& next = fr.succ[fr.next++];
        if (graph.count(next) == 0) continue;
        if (index.count(next) == 0) {
          open(next);
        } else if (on_stack[next]) {
          low[fr.node] = std::min(low[fr.node], index[next]);
        }
      } else {
        if (low[fr.node] == index[fr.node]) {
          std::vector<std::string> scc;
          while (true) {
            const std::string n = stack.back();
            stack.pop_back();
            on_stack[n] = false;
            scc.push_back(n);
            if (n == fr.node) break;
          }
          if (scc.size() > 1) {
            std::sort(scc.begin(), scc.end());
            sccs.push_back(std::move(scc));
          }
        }
        const std::string done = fr.node;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().node] =
              std::min(low[frames.back().node], low[done]);
        }
      }
    }
  }
  std::sort(sccs.begin(), sccs.end());
  return sccs;
}

}  // namespace

const std::vector<RuleInfo>& arch_rules() {
  static const std::vector<RuleInfo> kRules = {
      {"cycle", "a1", "the module dependency graph must be acyclic"},
      {"layering", "a2",
       "a module may only include same- or lower-layer modules (obs from "
       "below only via its compile-out macro surface)"},
      {"undeclared-edge", "a3",
       "every module->module include edge must be declared in the layering "
       "table (src/lint/arch.cpp)"},
      {"dead-export", "a4",
       "a function declared in a src/ header must be referenced by some TU "
       "beyond the header and its paired .cpp"},
      {"unused-include", "a5",
       "an #include of a repo header must contribute at least one "
       "referenced symbol to the including file"},
      {"thread-safety", "a6",
       "a function documented thread-safe must not touch file-scope "
       "mutable state without std::atomic/mutex tokens in scope"},
  };
  return kRules;
}

ArchResult run_arch(const ArchOptions& options) {
  const fs::path root(options.root);
  CCMX_REQUIRE(fs::is_directory(root),
               "arch root is not a directory: " + options.root);

  const std::vector<fs::path> paths =
      detail::collect_files(root, options.subdirs);
  std::vector<FileData> files(paths.size());
  std::set<std::string> all_rels;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    files[i].rel = detail::normalize_path(
        fs::relative(paths[i], root).generic_string());
    all_rels.insert(files[i].rel);
  }

  // Parallel scan: read + lex + index each file into its own slot; every
  // downstream pass walks `files` in sorted path order, so the result is
  // independent of the parallel degree.
  util::parallel_for(0, paths.size(), [&](std::size_t i) {
    FileData& fd = files[i];
    fd.module = module_of(fd.rel);
    fd.is_header = fd.rel.size() > 4 &&
                   (fd.rel.rfind(".hpp") == fd.rel.size() - 4 ||
                    fd.rel.rfind(".h") == fd.rel.size() - 2);
    fd.lines = detail::scan(detail::read_file(paths[i]));
    fd.allow = detail::suppressions(fd.lines);
    index_tokens(fd);
    index_declarations(fd);
    for (IncludeRef& inc : fd.includes) {
      inc.resolved = resolve_include(inc.spelled, fd.rel, all_rels);
    }
  });

  ArchResult result;
  result.files_scanned = files.size();

  std::unordered_map<std::string, const FileData*> by_rel;
  for (const FileData& fd : files) by_rel[fd.rel] = &fd;

  Reporter rep{result};

  // ---- module graph: edges with provenance, module summaries --------
  EdgeMap edges;          // all cross-module edges (incl. macro surface)
  EdgeMap checked_edges;  // the subset the layering/cycle rules see
  std::map<std::string, std::size_t> module_files;
  for (const FileData& fd : files) {
    ++module_files[fd.module];
    const ModuleSpec* from = find_spec(fd.module);
    for (const IncludeRef& inc : fd.includes) {
      if (inc.resolved.empty()) continue;
      ++result.include_edges;
      const std::string to = module_of(inc.resolved);
      if (to == fd.module) continue;
      const Occurrence occ{&fd, inc.line};
      edges[{fd.module, to}].push_back(occ);
      const ModuleSpec* to_spec = find_spec(to);
      const bool exempt = to == "obs" && is_macro_surface(inc.resolved) &&
                          from != nullptr && to_spec != nullptr &&
                          from->layer < to_spec->layer;
      if (!exempt) checked_edges[{fd.module, to}].push_back(occ);
    }
  }

  for (const auto& [key, occs] : edges) {
    (void)occs;
    if (module_files.count(key.second) == 0) module_files[key.second] = 0;
  }
  for (const auto& [name, count] : module_files) {
    ModuleSummary m;
    m.name = name;
    const ModuleSpec* spec = find_spec(name);
    m.layer = spec != nullptr ? spec->layer : -1;
    m.files = count;
    for (const auto& [key, occs] : edges) {
      (void)occs;
      if (key.first == name) m.deps.push_back(key.second);
      if (key.second == name) m.dependents.push_back(key.first);
    }
    result.modules.push_back(std::move(m));
  }
  std::sort(result.modules.begin(), result.modules.end(),
            [](const ModuleSummary& a, const ModuleSummary& b) {
              return std::tie(a.layer, a.name) < std::tie(b.layer, b.name);
            });

  // ---- A1 cycle ------------------------------------------------------
  std::map<std::string, std::set<std::string>> graph;
  for (const auto& [key, occs] : checked_edges) {
    (void)occs;
    graph[key.first].insert(key.second);
    graph[key.second];  // ensure the node exists
  }
  for (const std::vector<std::string>& scc : cycles_of(graph)) {
    std::string path;
    for (const std::string& m : scc) path += m + " -> ";
    path += scc.front();
    std::vector<Occurrence> occs;
    for (const auto& [key, edge_occs] : checked_edges) {
      if (std::find(scc.begin(), scc.end(), key.first) != scc.end() &&
          std::find(scc.begin(), scc.end(), key.second) != scc.end()) {
        occs.insert(occs.end(), edge_occs.begin(), edge_occs.end());
      }
    }
    std::sort(occs.begin(), occs.end(),
              [](const Occurrence& a, const Occurrence& b) {
                return std::tie(a.file->rel, a.line) <
                       std::tie(b.file->rel, b.line);
              });
    rep.report_at_first("cycle", occs,
                        "module dependency cycle: " + path);
  }

  // ---- A2 layering / A3 undeclared-edge ------------------------------
  for (const auto& [key, occs] : checked_edges) {
    const ModuleSpec* from = find_spec(key.first);
    const ModuleSpec* to = find_spec(key.second);
    if (from == nullptr || to == nullptr) continue;  // A3's business
    if (from->allow_all || to->layer <= from->layer) continue;
    rep.report_at_first(
        "layering", occs,
        "layering violation: '" + key.first + "' (layer " +
            std::to_string(from->layer) + ") includes '" + key.second +
            "' (layer " + std::to_string(to->layer) + ") — " +
            std::to_string(occs.size()) + " include(s); only obs's " +
            "compile-out macro surface may be reached from below");
  }

  for (const auto& [key, occs] : checked_edges) {
    const ModuleSpec* from = find_spec(key.first);
    const ModuleSpec* to = find_spec(key.second);
    if (from == nullptr || to == nullptr) {
      const std::string& unknown = from == nullptr ? key.first : key.second;
      rep.report_at_first(
          "undeclared-edge", occs,
          "module '" + unknown + "' is not in the declared layering " +
              "table (src/lint/arch.cpp); edge " + key.first + " -> " +
              key.second + " cannot be checked");
      continue;
    }
    if (from->allow_all || to->layer > from->layer) continue;  // A2's
    bool declared = false;
    for (const std::string_view dep : from->deps) {
      if (dep == key.second) declared = true;
    }
    if (declared) continue;
    rep.report_at_first(
        "undeclared-edge", occs,
        "undeclared cross-module edge: '" + key.first + "' -> '" +
            key.second + "' (" + std::to_string(occs.size()) +
            " include(s)) is direction-legal but missing from the " +
            "declared dependency table (src/lint/arch.cpp)");
  }

  // ---- A4 dead-export ------------------------------------------------
  for (const FileData& fd : files) {
    if (!fd.is_header || fd.rel.rfind("src/", 0) != 0) continue;
    const std::string paired = paired_source(fd.rel);
    std::set<std::string> type_names;
    for (const ExportSym& e : fd.exports) {
      if (e.kind == ExportSym::Kind::kType) type_names.insert(e.name);
    }
    std::set<std::string> reported;
    for (const ExportSym& e : fd.exports) {
      if (e.kind != ExportSym::Kind::kFunction) continue;
      if (e.name == "main" || type_names.count(e.name) != 0) continue;
      if (reported.count(e.name) != 0) continue;
      const auto self = fd.idents.find(e.name);
      const std::size_t self_count =
          self == fd.idents.end() ? 0 : self->second;
      if (self_count > 1) continue;  // used by the header's own inline code
      bool referenced = false;
      for (const FileData& other : files) {
        if (other.rel == fd.rel || other.rel == paired) continue;
        if (other.idents.count(e.name) != 0) {
          referenced = true;
          break;
        }
      }
      // The paired .cpp counts as a reference only when it *uses* the
      // name beyond defining it — a definition alone is not a caller.
      if (!referenced) {
        const auto paired_it = by_rel.find(paired);
        if (paired_it != by_rel.end()) {
          const FileData& pf = *paired_it->second;
          const auto cnt_it = pf.idents.find(e.name);
          const std::size_t cnt =
              cnt_it == pf.idents.end() ? 0 : cnt_it->second;
          const std::size_t defs =
              cnt > 0 && !find_definition_body(pf, e.name).empty() ? 1 : 0;
          if (cnt > defs) referenced = true;
        }
      }
      if (referenced) continue;
      reported.insert(e.name);
      rep.report("dead-export", fd, e.line,
                 "exported function '" + e.name +
                     "' is referenced by no TU other than this header " +
                     "and its paired source");
    }
  }

  // ---- A5 unused-include ---------------------------------------------
  for (const FileData& fd : files) {
    for (const IncludeRef& inc : fd.includes) {
      if (inc.resolved.empty()) continue;
      if (inc.resolved.rfind("src/", 0) != 0) continue;
      if (paired_source(inc.resolved) == fd.rel) continue;  // own header
      const auto it = by_rel.find(inc.resolved);
      if (it == by_rel.end()) continue;
      const FileData& header = *it->second;
      if (header.exports.empty()) continue;  // nothing provable
      bool contributes = false;
      for (const ExportSym& e : header.exports) {
        if (fd.idents.count(e.name) != 0) {
          contributes = true;
          break;
        }
      }
      if (contributes) continue;
      rep.report("unused-include", fd, inc.line,
                 "include of \"" + inc.spelled +
                     "\" contributes no referenced symbols to this file");
    }
  }

  // ---- A6 thread-safety ----------------------------------------------
  static const std::regex kThreadSafe(R"([Tt]hread-?\s?[Ss]afe)");
  for (const FileData& fd : files) {
    if (!fd.is_header || fd.rel.rfind("src/", 0) != 0) continue;
    const auto paired_it = by_rel.find(paired_source(fd.rel));
    const FileData* paired =
        paired_it == by_rel.end() ? nullptr : paired_it->second;

    const auto& lines = fd.lines;
    std::size_t i = 0;
    while (i < lines.size()) {
      // Doc blocks exactly as R2 sees them, plus a same-line trailing
      // "// thread-safe" comment on the signature itself.
      bool documented = false;
      if (!lines[i].comment.empty() && is_blank(lines[i].code)) {
        std::string doc;
        while (i < lines.size() && !lines[i].comment.empty() &&
               is_blank(lines[i].code)) {
          doc += lines[i].comment;
          doc += ' ';
          ++i;
        }
        documented = std::regex_search(doc, kThreadSafe);
        while (i < lines.size() && is_blank(lines[i].code) &&
               lines[i].comment.empty()) {
          ++i;
        }
        if (i >= lines.size()) break;
        if (is_blank(lines[i].code)) continue;  // next doc block
      } else {
        documented = !lines[i].comment.empty() &&
                     std::regex_search(lines[i].comment, kThreadSafe) &&
                     !is_blank(lines[i].code);
        if (!documented) {
          ++i;
          continue;
        }
      }
      if (!documented) continue;

      const std::size_t signature_line = i + 1;
      std::set<std::string> no_tparams;
      // Classify: inline body in the header, or a declaration whose
      // body lives in the paired .cpp.
      int paren = 0;
      int brace = 0;
      bool seen_paren = false;
      bool in_body = false;
      bool declaration = false;
      std::string signature;
      std::string body;
      std::size_t j = i;
      for (std::size_t guard = 0; j < lines.size() && guard < 300;
           ++j, ++guard) {
        for (const char c : lines[j].code) {
          if (!in_body) {
            signature.push_back(c);
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
      const std::string name = function_candidate(signature, no_tparams);
      if (name.empty()) continue;

      const FileData* body_file = &fd;
      if (declaration) {
        if (paired == nullptr) continue;
        body = find_definition_body(*paired, name);
        if (body.empty()) continue;
        body_file = paired;
      } else if (!in_body) {
        continue;
      }

      static const std::regex kSafety(
          R"(mutex|lock_guard|unique_lock|scoped_lock|shared_lock|atomic|call_once|memory_order|fetch_|\.load\s*\(|\.store\s*\()");
      if (std::regex_search(body, kSafety)) continue;
      for (const std::string& state : body_file->mutable_state) {
        if (!has_token(body, state)) continue;
        rep.report("thread-safety", fd, signature_line,
                   "'" + name + "' is documented thread-safe but its " +
                       "body touches file-scope mutable state '" + state +
                       "' with no std::atomic/mutex tokens in scope");
        break;
      }
    }
  }

  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return result;
}

std::string render_arch_report_json(const ArchResult& result,
                                    const ArchOptions& options) {
  std::ostringstream os;
  obs::json::Writer w(os);
  w.begin_object();
  w.key("schema").value(obs::kArchReportSchema);
  w.key("root").value(options.root);
  w.key("subdirs").begin_array();
  for (const std::string& s : options.subdirs) w.value(s);
  w.end_array();
  w.key("files_scanned").value(std::uint64_t{result.files_scanned});
  w.key("include_edges").value(std::uint64_t{result.include_edges});
  w.key("suppressed").value(std::uint64_t{result.suppressed});
  std::map<std::string, std::uint64_t> counts;
  for (const RuleInfo& rule : arch_rules()) counts[std::string(rule.name)] = 0;
  for (const Finding& f : result.findings) ++counts[f.rule];
  w.key("counts").begin_object();
  for (const auto& [rule, count] : counts) w.key(rule).value(count);
  w.end_object();
  w.key("modules").begin_array();
  for (const ModuleSummary& m : result.modules) {
    w.begin_object();
    w.key("name").value(m.name);
    w.key("layer").value(std::int64_t{m.layer});
    w.key("files").value(std::uint64_t{m.files});
    w.key("fan_out").value(std::uint64_t{m.deps.size()});
    w.key("fan_in").value(std::uint64_t{m.dependents.size()});
    w.key("deps").begin_array();
    for (const std::string& d : m.deps) w.value(d);
    w.end_array();
    w.key("dependents").begin_array();
    for (const std::string& d : m.dependents) w.value(d);
    w.end_array();
    w.end_object();
  }
  w.end_array();
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

std::vector<std::string> validate_arch_report(const obs::json::Value& doc) {
  std::vector<std::string> problems;
  if (!doc.is_object()) {
    problems.emplace_back("document is not an object");
    return problems;
  }
  const obs::json::Value* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string()) {
    problems.emplace_back("missing string \"schema\"");
  } else if (schema->string != obs::kArchReportSchema) {
    problems.push_back("schema is \"" + schema->string + "\", expected \"" +
                       std::string(obs::kArchReportSchema) + "\"");
  }
  for (const char* key : {"files_scanned", "include_edges", "suppressed"}) {
    const obs::json::Value* v = doc.find(key);
    if (v == nullptr || !v->is_number()) {
      problems.push_back(std::string("missing number \"") + key + "\"");
    }
  }
  const obs::json::Value* modules = doc.find("modules");
  if (modules == nullptr || !modules->is_array()) {
    problems.emplace_back("missing array \"modules\"");
  } else {
    for (std::size_t i = 0; i < modules->array.size(); ++i) {
      const obs::json::Value& m = modules->array[i];
      const std::string where = "modules[" + std::to_string(i) + "]";
      if (!m.is_object()) {
        problems.push_back(where + " is not an object");
        continue;
      }
      const obs::json::Value* name = m.find("name");
      if (name == nullptr || !name->is_string()) {
        problems.push_back(where + " missing string \"name\"");
      }
      for (const char* key : {"layer", "files", "fan_out", "fan_in"}) {
        const obs::json::Value* v = m.find(key);
        if (v == nullptr || !v->is_number()) {
          problems.push_back(where + " missing number \"" + key + "\"");
        }
      }
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
