// ccmx_lint — the project-invariant static-analysis pass.
//
// A lexical (token-level, no libclang) linter that walks src/, bench/,
// tools/, and tests/ and enforces the repo invariants that protect the
// lemma-verification results from silent corruption:
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
//   R6 include-hygiene  every header starts with #pragma once (the
//                       build-side half — each header compiling as its
//                       own TU — is the ccmx_header_hygiene target).
//   R7 signal-safety    a function annotated with a
//                       `// ccmx-lint: signal-context` marker (the
//                       profiler's SIGPROF path) must not call the
//                       non-async-signal-safe denylist: allocation,
//                       stdio formatting, std::string construction,
//                       locks.
//
// Scope rules are lexical by design: they run in milliseconds with zero
// toolchain dependencies, and the cost of that is a documented set of
// heuristics (see docs/STATIC_ANALYSIS.md) plus two escape hatches — a
// `// ccmx-lint: allow(<rule>)` suppression on (or one line above) the
// offending line, and a committed baseline file keyed by content
// fingerprints (not line numbers) so the gate starts green on legacy
// findings and cannot rot as lines move.
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
  std::string_view alias;  // short id: "r1".."r7", also accepted in allow()
  std::string_view summary;
  /// Fingerprint version: bumped whenever the rule tightens, so stale
  /// baseline entries written against the looser rule stop matching.
  unsigned version = 1;
};

/// The seven rules, in R1..R7 order.
[[nodiscard]] const std::vector<RuleInfo>& rules();

/// Fingerprint version of a rule by canonical name (lexical and arch
/// rules both); unknown names report version 1.
[[nodiscard]] unsigned rule_version(std::string_view rule);

/// Accumulated cost of one rule (or scan phase) across a run.  Wall and
/// CPU are summed per file across workers, so with a parallel scan the
/// wall column reads as worker-seconds of attribution, not elapsed time.
struct RuleTiming {
  std::string rule;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
};

/// Result of linting one file.
struct FileLint {
  std::vector<Finding> findings;
  std::size_t suppressed = 0;  // findings silenced by allow(...) comments
  std::vector<RuleTiming> timings;  // one row per rule, R1..R7 order
};

/// Lints one file's text.  `rel_path` is the repo-relative path and
/// decides which rules apply (e.g. R1 only fires under src/); callers may
/// pass any path to simulate a location, which is how the fixture tests
/// exercise scope rules.
[[nodiscard]] FileLint lint_text(std::string_view rel_path,
                                 std::string_view text);

/// Content-addressed identity of a finding: versioned rule
/// ("<rule>@v<version>"), file, and the whitespace-squashed snippet —
/// deliberately not the line number, so a baselined finding stays
/// baselined when unrelated lines move, but NOT when the rule itself
/// tightens (the version bump invalidates the stale entry).
[[nodiscard]] std::string finding_fingerprint(const Finding& finding);

/// Outcome of the one mechanical fix ccmx_lint knows how to apply
/// (`--fix`): inserting a missing #pragma once (rule R6).
struct FixOutcome {
  enum class Status {
    kFixed,         // text holds the rewritten file
    kAlreadyClean,  // header already declares #pragma once
    kRefused        // file carries an allow(include-hygiene) suppression
  };
  Status status = Status::kAlreadyClean;
  std::string text;  // only meaningful for kFixed
};

/// Computes the R6 fix for one header: inserts `#pragma once` after the
/// leading comment block (matching the repo's file-doc-then-pragma
/// style).  Idempotent — text that already contains the pragma reports
/// kAlreadyClean — and refuses files that suppress the rule, since a
/// deliberate `allow(include-hygiene)` means the author opted out.
[[nodiscard]] FixOutcome fix_pragma_once(std::string_view text);

/// A committed set of tolerated legacy findings (one fingerprint per
/// line; '#' comments and blank lines ignored).
class Baseline {
 public:
  /// Missing file loads as an empty baseline.
  [[nodiscard]] static Baseline load(const std::string& path);
  [[nodiscard]] static Baseline from_findings(
      const std::vector<Finding>& findings);

  /// Renders the file format (sorted, deduplicated, with a header).
  [[nodiscard]] std::string render() const;

  [[nodiscard]] bool contains(const Finding& finding) const;
  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }

 private:
  std::vector<std::string> keys_;  // sorted fingerprints
};

struct RunOptions {
  /// Repo root; subdirs and reported paths are relative to it.
  std::string root = ".";
  std::vector<std::string> subdirs = {"src", "bench", "tools", "tests"};
  /// Empty = no baseline filtering.
  std::string baseline_path;
};

struct RunResult {
  std::vector<Finding> findings;   // active (gate-failing) findings
  std::vector<Finding> baselined;  // matched the baseline, tolerated
  std::size_t files_scanned = 0;
  std::size_t suppressed = 0;
  std::vector<RuleTiming> timings;  // summed across files, R1..R7 order
};

/// Walks the tree and lints every .hpp/.cpp file.  Directories named
/// "lint_fixtures" (deliberately-violating test inputs), "build", and
/// hidden directories are skipped.  Files are linted in parallel over
/// util::parallel_for and merged in sorted path order, so the result is
/// deterministic regardless of degree.  Throws util::contract_error when
/// `root` is not a directory.
[[nodiscard]] RunResult run_lint(const RunOptions& options);

/// ccmx.lint_report/1 JSON document (one object, trailing newline).
[[nodiscard]] std::string render_lint_report_json(const RunResult& result,
                                                  const RunOptions& options);

/// Schema check for a parsed ccmx.lint_report/1 document; empty = valid.
[[nodiscard]] std::vector<std::string> validate_lint_report(
    const obs::json::Value& doc);

}  // namespace ccmx::lint
