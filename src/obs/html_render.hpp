// Self-contained HTML dashboard over the observability artifacts.
//
// render_dashboard_html() turns run reports, a bench diff, a channel
// trace and a profile into ONE dependency-free HTML file: every chart is
// inline SVG rendered here (per-round/per-agent traffic bars, a
// span-tree flame view, a sampled CPU flame graph over the profiler's
// collapsed stacks), every color and font is inline CSS, and there is no
// JavaScript and no network fetch of any kind — the file opens
// identically from a CI artifact, an email attachment, or file://.  The run-report documents the page was
// rendered from are embedded verbatim in a
// <script type="application/json"> data island (schema
// ccmx.dashboard_data/1), so the machine-readable truth travels with the
// picture and round-trips through the strict obs::json parser.
//
// Every input except the reports is optional; absent sections render as
// a short "not provided" note so a partial dashboard is still valid.
#pragma once

#include <string>

#include "obs/analysis.hpp"
#include "obs/json_reader.hpp"
#include "obs/profile_reader.hpp"
#include "obs/trace_reader.hpp"

namespace ccmx::obs {

/// Inputs of one dashboard.  Non-owning: every pointer must outlive the
/// render call; nullptr simply omits that section.
struct DashboardData {
  /// Page title; empty picks a default.
  std::string title;
  /// Provenance line ("git abc123, Release, 2026-08-07"); optional.
  std::string provenance;
  /// Validated run reports (required — the dashboard's identity).
  const LoadResult* reports = nullptr;
  /// A parsed ccmx.bench_diff/2 document for the verdict table.
  const json::Value* diff = nullptr;
  /// A parsed ccmx.arch_report/2 document (ccmx_lint arch --json) for
  /// the architecture panel: per-module fan-in/fan-out plus the open
  /// violation list.
  const json::Value* arch = nullptr;
  /// A parsed channel trace for the traffic histograms.
  const ChannelTrace* trace = nullptr;
  /// Span forest (typically build_span_forest(trace->spans)) for the
  /// flame view.
  const SpanForest* forest = nullptr;
  /// Stats from the streaming read of `trace` (lines, torn tail) for
  /// the trace-pipeline panel.
  const TraceReadStats* trace_stats = nullptr;
  /// A loaded ccmx.profile/1 stream (sampling CPU profiler) for the
  /// sampled flame graph next to the span-tree flame view.
  const ProfileData* profile = nullptr;
};

/// Renders the dashboard.  Throws util::contract_error when `reports` is
/// null.  The output is a complete HTML5 document with balanced tags (a
/// tag-stack writer guarantees this by construction) and zero external
/// references.
[[nodiscard]] std::string render_dashboard_html(const DashboardData& data);

}  // namespace ccmx::obs
