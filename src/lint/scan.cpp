#include "lint/scan.hpp"

#include <algorithm>
#include <cctype>
#include <regex>
#include <sstream>

#include "lint/arch.hpp"
#include "lint/lint.hpp"

namespace ccmx::lint::detail {

bool is_blank(std::string_view s) {
  return std::all_of(s.begin(), s.end(),
                     [](unsigned char c) { return std::isspace(c) != 0; });
}

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return std::string(s.substr(b, e - b));
}

std::string squash(std::string_view s) {
  std::string out;
  bool pending_space = false;
  for (const char c : trim(s)) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      pending_space = true;
      continue;
    }
    if (pending_space && !out.empty()) out.push_back(' ');
    pending_space = false;
    out.push_back(c);
  }
  return out;
}

std::string normalize_path(std::string path) {
  std::replace(path.begin(), path.end(), '\\', '/');
  while (path.rfind("./", 0) == 0) path.erase(0, 2);
  return path;
}

std::vector<ScannedLine> scan(std::string_view text) {
  std::vector<ScannedLine> lines(1);
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString
  };
  State state = State::kCode;
  std::string raw_tag;          // for kRawString: the )tag" terminator
  std::string* literal = nullptr;  // current string literal sink

  const auto newline = [&] { lines.emplace_back(); };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    ScannedLine& line = lines.back();
    switch (state) {
      case State::kCode:
        if (c == '\n') {
          newline();
        } else if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (line.code.empty() ||
                    (std::isalnum(static_cast<unsigned char>(
                         line.code.back())) == 0 &&
                     line.code.back() != '_'))) {
          // R"tag( ... )tag"
          std::size_t open = text.find('(', i + 2);
          if (open == std::string_view::npos) {
            line.code.push_back(c);
            break;
          }
          raw_tag = ")" + std::string(text.substr(i + 2, open - (i + 2))) +
                    "\"";
          line.code += "\"\"";
          line.strings.emplace_back();
          literal = &line.strings.back();
          state = State::kRawString;
          i = open;  // consume through the opening parenthesis
        } else if (c == '"') {
          line.code += "\"\"";
          line.strings.emplace_back();
          literal = &line.strings.back();
          state = State::kString;
        } else if (c == '\'') {
          line.code += "''";
          state = State::kChar;
        } else {
          line.code.push_back(c);
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          newline();
          state = State::kCode;
        } else {
          line.comment.push_back(c);
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        } else if (c == '\n') {
          newline();
        } else {
          line.comment.push_back(c);
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0') {
          literal->push_back(c);
          literal->push_back(next);
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          literal = nullptr;
        } else if (c == '\n') {  // unterminated; recover per line
          newline();
          state = State::kCode;
          literal = nullptr;
        } else {
          literal->push_back(c);
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        } else if (c == '\n') {
          newline();
          state = State::kCode;
        }
        break;
      case State::kRawString:
        if (c == '\n') {
          newline();
          // keep accumulating into the literal of the starting line
        } else if (text.compare(i, raw_tag.size(), raw_tag) == 0) {
          i += raw_tag.size() - 1;
          state = State::kCode;
          literal = nullptr;
        } else {
          literal->push_back(c);
        }
        break;
    }
  }
  return lines;
}

std::string canonical_rule(std::string_view token) {
  std::string t = trim(token);
  std::transform(t.begin(), t.end(), t.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (t == "all") return "all";
  for (const RuleInfo& rule : rules()) {
    if (t == rule.name || t == rule.alias) return std::string(rule.name);
  }
  for (const RuleInfo& rule : arch_rules()) {
    if (t == rule.name || t == rule.alias) return std::string(rule.name);
  }
  return {};
}

std::vector<std::set<std::string>> suppressions(
    const std::vector<ScannedLine>& lines) {
  static const std::regex kAllow(R"(ccmx-lint:\s*allow\(([^)]*)\))");
  std::vector<std::set<std::string>> allow(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].comment.empty()) continue;
    std::smatch m;
    std::string comment = lines[i].comment;
    while (std::regex_search(comment, m, kAllow)) {
      std::stringstream list(m[1].str());
      std::string token;
      while (std::getline(list, token, ',')) {
        const std::string rule = canonical_rule(token);
        if (!rule.empty()) allow[i].insert(rule);
      }
      comment = m.suffix();
    }
  }
  return allow;
}

bool is_suppressed(const std::vector<std::set<std::string>>& allow,
                   std::size_t line_no, std::string_view rule) {
  const auto allows = [&](std::size_t idx) {
    if (idx >= allow.size()) return false;
    return allow[idx].count(std::string(rule)) != 0 ||
           allow[idx].count("all") != 0;
  };
  const std::size_t idx = line_no - 1;  // line_no is 1-based
  return allows(idx) || (idx > 0 && allows(idx - 1));
}

}  // namespace ccmx::lint::detail
