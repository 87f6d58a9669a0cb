// ccmx_lint — the project-invariant static-analysis pass.
//
// A lexical (token-level, no libclang) linter that walks src/, bench/,
// tools/, tests/ and examples/ and enforces the repo invariants that
// protect the lemma-verification results from silent corruption:
//
//   R1 narrow           no raw narrowing static_cast between integer
//                       types in src/ — route through util/narrow.hpp
//                       (narrow at API edges, narrow_cast on hot paths).
//   R2 require          a header doc comment that documents a throwing
//                       precondition ("throws ...", "Precondition: ...")
//                       on an inline function must be backed by a
//                       CCMX_REQUIRE / CCMX_ASSERT / throw in the body.
//   R3 schema           every "ccmx.<name>/<version>" schema string in
//                       src/, tools/, bench/ must live in the
//                       src/obs/schemas.hpp registry — no stray literals.
//   R4 bench-main       bench binaries register through CCMX_BENCH_MAIN
//                       only (no hand-rolled int main in bench_*.cpp).
//   R5 rng              no rand()/std::rand/std::mt19937/random_device
//                       outside util/rng — all randomness is seeded
//                       Xoshiro256.
//   R7 signal-safety    a function annotated with a
//                       `// ccmx-lint: signal-context` marker (the
//                       profiler's SIGPROF path) must not call the
//                       non-async-signal-safe denylist: allocation,
//                       stdio formatting, std::string construction,
//                       locks.
//
// R6 (include hygiene) is not a lexical rule: the ccmx_header_hygiene
// build target includes every header twice in its own TU, so a header
// that defines anything and lacks #pragma once fails to compile
// (src/CMakeLists.txt).  The alias "r6" stays retired rather than reused.
//
// Scope rules are lexical by design: they run in milliseconds with zero
// toolchain dependencies, and the cost of that is a documented set of
// heuristics (see docs/STATIC_ANALYSIS.md) plus one escape hatch — a
// `// ccmx-lint: allow(<rule>)` suppression on (or one line above) the
// offending line, visible in review next to the code it excuses.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json_reader.hpp"

namespace ccmx::lint {

/// One rule violation.
struct Finding {
  std::string rule;     // "narrow", "require", ... (see rules())
  std::string file;     // repo-relative path, forward slashes
  std::size_t line = 0; // 1-based
  std::string message;
  std::string snippet;  // trimmed offending source line
};

struct RuleInfo {
  std::string_view name;   // canonical name, used in allow(...) and reports
  std::string_view alias;  // short id ("r1".."r7"), also accepted in allow()
  std::string_view summary;
};

/// The six lexical rules, in R1..R5, R7 order.
[[nodiscard]] const std::vector<RuleInfo>& rules();

/// Result of linting one file.
struct FileLint {
  std::vector<Finding> findings;
  std::size_t suppressed = 0;  // findings silenced by allow(...) comments
};

/// Lints one file's text.  `rel_path` is the repo-relative path and
/// decides which rules apply (e.g. R1 only fires under src/); callers may
/// pass any path to simulate a location, which is how the fixture tests
/// exercise scope rules.
[[nodiscard]] FileLint lint_text(std::string_view rel_path,
                                 std::string_view text);

/// The directories both passes (run_lint and run_arch) walk by
/// default, relative to the root; an absent one is skipped.
[[nodiscard]] const std::vector<std::string>& default_subdirs();

struct RunOptions {
  /// Repo root; subdirs and reported paths are relative to it.
  std::string root = ".";
  std::vector<std::string> subdirs = default_subdirs();
};

struct RunResult {
  std::vector<Finding> findings;  // every finding fails the gate
  std::size_t files_scanned = 0;
  std::size_t suppressed = 0;
};

/// Walks the tree and lints every .hpp/.cpp file.  Directories named
/// "lint_fixtures" (deliberately-violating test inputs), "build", and
/// hidden directories are skipped.  Files are linted in parallel over
/// util::parallel_for and merged in sorted path order, so the result is
/// deterministic regardless of degree.  Throws util::contract_error when
/// `root` is not a directory.
[[nodiscard]] RunResult run_lint(const RunOptions& options);

/// ccmx.lint_report/2 JSON document (one object, trailing newline).
[[nodiscard]] std::string render_lint_report_json(const RunResult& result,
                                                  const RunOptions& options);

/// Schema check for a parsed ccmx.lint_report/2 document; empty = valid.
[[nodiscard]] std::vector<std::string> validate_lint_report(
    const obs::json::Value& doc);

}  // namespace ccmx::lint
