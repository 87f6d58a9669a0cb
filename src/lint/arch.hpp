// ccmx arch — the whole-repo architecture analysis pass.
//
// Where ccmx_lint (lint/lint.hpp) checks one file at a time, this pass
// reads the entire tree at once: it parses every `#include` into a
// module-level dependency graph, checks that graph against the declared
// layering, and cross-references the symbols each header exports against
// every translation unit that could use them.  Six rules:
//
//   A1 cycle            the module dependency graph must be acyclic.
//   A2 layering         a module may only include same- or lower-layer
//                       modules.  Declared layering (low to high):
//                       util → bigint → linalg → {core, comm} →
//                       {protocols, vlsi} → obs → lint →
//                       tools/tests/bench/examples.  `obs` sits above the
//                       math layers on purpose — instrumentation may
//                       observe everything — and is reachable from below
//                       ONLY through its compile-out macro surface
//                       (obs/obs.hpp, obs/progress.hpp, obs/profiler.hpp,
//                       all of which stub to no-ops under -DCCMX_OBS=OFF).
//   A3 undeclared-edge  every module→module edge must be in the declared
//                       dependency list below — a downward include that
//                       nobody wrote down is how layering erodes.
//   A4 dead-export      a function declared in a src/ header must be
//                       referenced by some TU other than the header and
//                       its paired .cpp.
//   A5 unused-include   an #include of a repo header must contribute at
//                       least one referenced symbol to the including file.
//   A6 thread-safety    a function documented "thread-safe" in its header
//                       comment must not touch file-scope mutable state
//                       without std::atomic / mutex tokens in scope.
//
// Like the lexical rules, everything here is token-level by design (no
// libclang): the heuristics are documented in docs/STATIC_ANALYSIS.md and
// the one escape hatch is shared with ccmx_lint — `// ccmx-lint:
// allow(<rule>)` on (or one line above) the reported line.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lint/lint.hpp"
#include "obs/json_reader.hpp"

namespace ccmx::lint {

/// The six arch rules, in A1..A6 order (aliases "a1".."a6").
[[nodiscard]] const std::vector<RuleInfo>& arch_rules();

/// One module of the analyzed tree and its observed dependency fan.
struct ModuleSummary {
  std::string name;    // "util", "core", ..., "tools"
  int layer = -1;      // declared layer rank; -1 = not in the layering
  std::size_t files = 0;
  /// Distinct modules this module includes / is included by (sorted;
  /// macro-surface edges into obs count — they are real dependencies,
  /// they are just exempt from the layering direction check).
  std::vector<std::string> deps;
  std::vector<std::string> dependents;
};

struct ArchOptions {
  /// Repo root; subdirs and reported paths are relative to it.
  std::string root = ".";
  std::vector<std::string> subdirs = default_subdirs();
};

struct ArchResult {
  std::vector<Finding> findings;  // every finding fails the gate
  std::vector<ModuleSummary> modules;
  std::size_t files_scanned = 0;
  std::size_t include_edges = 0;  // resolved repo-internal includes
  std::size_t suppressed = 0;
};

/// Runs the whole-tree analysis.  The file walk is shared with run_lint
/// (same subdirs, extensions and skip list) and parallelized over
/// util::parallel_for; results are deterministic regardless of degree.
/// Throws util::contract_error when `root` is not a directory.
[[nodiscard]] ArchResult run_arch(const ArchOptions& options);

/// ccmx.arch_report/2 JSON document (one object, trailing newline).
[[nodiscard]] std::string render_arch_report_json(const ArchResult& result,
                                                  const ArchOptions& options);

/// Schema check for a parsed ccmx.arch_report/2 document; empty = valid.
[[nodiscard]] std::vector<std::string> validate_arch_report(
    const obs::json::Value& doc);

}  // namespace ccmx::lint
