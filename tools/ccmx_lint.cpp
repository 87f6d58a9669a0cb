// ccmx_lint — CLI for the project-invariant static-analysis passes.
//
//   ccmx_lint      [--root DIR] [--subdir D ...] [--json PATH]
//                  [--list-rules] [--quiet]
//   ccmx_lint arch [--root DIR] [--subdir D ...] [--json PATH]
//                  [--list-rules] [--quiet]
//
// The bare form runs the per-file lexical rules (lint/lint.hpp);
// `ccmx_lint arch` runs the whole-repo architecture pass A1–A6
// (lint/arch.hpp) — include graph vs the declared layering plus the
// symbol cross-reference.  Both walk the same subdirs.  Exit status for
// both: 0 = clean, 1 = findings, 2 = usage or I/O error.  A --subdir
// that names no directory and a run that finds no source file are
// errors too, so a typo cannot pass the gate by scanning nothing.  The
// only way to tolerate a finding is a `// ccmx-lint: allow(<rule>)`
// comment next to it.
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "lint/arch.hpp"
#include "lint/lint.hpp"

namespace {

void print_usage(std::ostream& os) {
  os << "usage: ccmx_lint [arch] [options]\n"
        "  arch               run the whole-repo architecture pass (A1-A6)\n"
        "                     instead of the per-file lexical rules\n"
        "  --root DIR         repo root to lint (default: .)\n"
        "  --subdir D         scan only this subdir of the root; repeatable\n"
        "                     (default: src bench tools tests examples)\n"
        "  --json PATH        also write the machine-readable report\n"
        "                     (obs::kLintReportSchema / kArchReportSchema)\n"
        "  --list-rules       print the rule table and exit\n"
        "  --quiet            summary line only, no per-finding output\n";
}

void print_findings(const std::vector<ccmx::lint::Finding>& findings) {
  for (const ccmx::lint::Finding& f : findings) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
    if (!f.snippet.empty()) std::cout << "    " << f.snippet << "\n";
  }
}

void print_rules(const std::vector<ccmx::lint::RuleInfo>& rules) {
  for (const ccmx::lint::RuleInfo& rule : rules) {
    std::cout << rule.alias << "  " << rule.name << "\n    " << rule.summary
              << "\n";
  }
}

struct CommonArgs {
  std::string root = ".";
  std::vector<std::string> subdirs;  // empty = lint::default_subdirs()
  bool quiet = false;
  bool list_rules = false;
  std::string json_path;
};

int parse_args(int argc, char** argv, int first, CommonArgs& args) {
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "ccmx_lint: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      args.root = next();
    } else if (arg == "--subdir") {
      args.subdirs.push_back(next());
    } else if (arg == "--json") {
      args.json_path = next();
    } else if (arg == "--quiet") {
      args.quiet = true;
    } else if (arg == "--list-rules") {
      args.list_rules = true;
    } else if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      std::exit(0);
    } else {
      std::cerr << "ccmx_lint: unknown argument " << arg << "\n";
      print_usage(std::cerr);
      return 2;
    }
  }
  for (const std::string& subdir : args.subdirs) {
    if (!std::filesystem::is_directory(std::filesystem::path(args.root) /
                                       subdir)) {
      std::cerr << "ccmx_lint: --subdir " << subdir
                << " is not a directory under " << args.root << "\n";
      print_usage(std::cerr);
      return 2;
    }
  }
  return 0;
}

/// A run that scanned no file checked nothing: typically a --root that
/// is not the repo (say, the build directory).  Reports it as an error.
bool scanned_nothing(std::size_t files_scanned, const std::string& root) {
  if (files_scanned > 0) return false;
  std::cerr << "ccmx_lint: no source files under " << root
            << " (is it the repo root?)\n";
  return true;
}

int write_json_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    std::cerr << "ccmx_lint: cannot write " << path << "\n";
    return 2;
  }
  out << content;
  return 0;
}

int run_lexical_mode(const CommonArgs& args) {
  if (args.list_rules) {
    print_rules(ccmx::lint::rules());
    return 0;
  }
  ccmx::lint::RunOptions options;
  options.root = args.root;
  if (!args.subdirs.empty()) options.subdirs = args.subdirs;

  const ccmx::lint::RunResult result = ccmx::lint::run_lint(options);
  if (scanned_nothing(result.files_scanned, options.root)) return 2;

  if (!args.json_path.empty()) {
    const int rc = write_json_file(
        args.json_path, ccmx::lint::render_lint_report_json(result, options));
    if (rc != 0) return rc;
  }

  if (!args.quiet) print_findings(result.findings);
  std::cout << "ccmx_lint: " << result.files_scanned << " file(s), "
            << result.findings.size() << " finding(s), " << result.suppressed
            << " suppressed\n";
  return result.findings.empty() ? 0 : 1;
}

int run_arch_mode(const CommonArgs& args) {
  if (args.list_rules) {
    print_rules(ccmx::lint::arch_rules());
    return 0;
  }
  ccmx::lint::ArchOptions options;
  options.root = args.root;
  if (!args.subdirs.empty()) options.subdirs = args.subdirs;

  const ccmx::lint::ArchResult result = ccmx::lint::run_arch(options);
  if (scanned_nothing(result.files_scanned, options.root)) return 2;

  if (!args.json_path.empty()) {
    const int rc = write_json_file(
        args.json_path, ccmx::lint::render_arch_report_json(result, options));
    if (rc != 0) return rc;
  }

  if (!args.quiet) print_findings(result.findings);
  std::cout << "ccmx_lint arch: " << result.files_scanned << " file(s), "
            << result.include_edges << " include edge(s), "
            << result.modules.size() << " module(s), "
            << result.findings.size() << " finding(s), " << result.suppressed
            << " suppressed\n";
  return result.findings.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bool arch_mode =
      argc > 1 && std::strcmp(argv[1], "arch") == 0;
  CommonArgs args;
  const int parse_rc = parse_args(argc, argv, arch_mode ? 2 : 1, args);
  if (parse_rc != 0) return parse_rc;
  try {
    return arch_mode ? run_arch_mode(args) : run_lexical_mode(args);
  } catch (const std::exception& e) {
    std::cerr << "ccmx_lint: " << e.what() << "\n";
    return 2;
  }
}
