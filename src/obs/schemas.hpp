// The single registry of machine-readable document schemas this repo
// emits.  Every JSON(L) artifact carries a "schema" field of the form
// "ccmx.<name>/<version>"; the string MUST be one of the constants below
// and MUST be referenced through them — ccmx_lint rule R3 ("schema")
// flags any other occurrence of a ccmx.<name>/<version> string literal
// in src/, tools/, or bench/, so a new emitter cannot invent an
// unregistered (or typo'd) schema id without failing the lint gate.
//
// Version bumps: adding a field is backward compatible and keeps the
// version; removing or re-typing a field bumps <version> and gets a new
// constant here (consumers match on the exact string).  Readers tolerate
// older formats only for stored artifacts (the run reports committed in
// bench/baseline/); a document written and read by the same build, such
// as a trace or a bench diff, is read at its current format only.
#pragma once

#include <string_view>

namespace ccmx::obs {

/// Per-process run summary written by every bench binary and by ccmx_cli
/// (see obs/report.hpp).
inline constexpr std::string_view kRunReportSchema = "ccmx.run_report/1";

/// Diff of two run-report directories, cpu timings and table counters —
/// the CI perf gate artifact (see obs/analysis.hpp).
inline constexpr std::string_view kBenchDiffSchema = "ccmx.bench_diff/2";

/// Findings of the project-invariant static-analysis pass — `ccmx_lint`
/// (see lint/lint.hpp).
inline constexpr std::string_view kLintReportSchema = "ccmx.lint_report/2";

/// Findings of the whole-repo architecture analysis — module include
/// graph vs the declared layering plus the symbol cross-reference —
/// `ccmx_lint arch` (see lint/arch.hpp).
inline constexpr std::string_view kArchReportSchema = "ccmx.arch_report/2";

/// Chrome trace-event JSON converted from a ccmx JSONL trace —
/// `ccmx_insight trace --chrome` (see obs/trace_reader.hpp).  The
/// document is the trace-event "object format" with this schema id as an
/// extra top-level key (Perfetto ignores keys it does not know).
inline constexpr std::string_view kChromeTraceSchema = "ccmx.chrome_trace/1";

/// The data island embedded in `ccmx_insight html` dashboards — wraps
/// the run-report documents the page renders so they can be re-parsed
/// from the HTML (see obs/html_render.hpp).
inline constexpr std::string_view kDashboardDataSchema =
    "ccmx.dashboard_data/1";

/// JSONL stream of the sampling CPU profiler (see obs/profiler.hpp):
/// a "meta" row, interned "frame" rows, leaf-first "sample" rows
/// referencing frames by id, and a closing "ledger" row whose
/// conservation invariant is captured == written + dropped.
inline constexpr std::string_view kProfileSchema = "ccmx.profile/1";

/// Every schema id this repo may stamp into a document, for validators
/// that only need to know "is this one of ours".
inline constexpr std::string_view kRegisteredSchemas[] = {
    kRunReportSchema,  kBenchDiffSchema,   kLintReportSchema,
    kArchReportSchema, kChromeTraceSchema, kDashboardDataSchema,
    kProfileSchema,
};

[[nodiscard]] constexpr bool is_registered_schema(
    std::string_view schema) noexcept {
  for (const std::string_view known : kRegisteredSchemas) {
    if (known == schema) return true;
  }
  return false;
}

}  // namespace ccmx::obs
