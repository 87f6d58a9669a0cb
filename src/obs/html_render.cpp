#include "obs/html_render.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/schemas.hpp"
#include "util/require.hpp"

namespace ccmx::obs {

namespace {

// ------------------------------------------------------------ utilities

// ccmx_obs sits below ccmx_util in the link order, so the fixed-point
// formatter is replicated here instead of pulling util/table.hpp in.
std::string fmt_fixed(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", digits, value);
  return buffer;
}

std::string html_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&#39;"; break;
      default: out += c;
    }
  }
  return out;
}

/// Tag-stack HTML writer: close() pops the innermost open element, and
/// finish() refuses to return until everything opened was closed — so
/// the emitted document has balanced tags by construction, which the
/// well-formedness tests then verify independently.
class HtmlWriter {
 public:
  using Attrs = std::vector<std::pair<std::string_view, std::string>>;

  HtmlWriter& open(std::string_view tag, const Attrs& attrs = {}) {
    emit_tag(tag, attrs, /*self_close=*/false);
    stack_.emplace_back(tag);
    return *this;
  }

  HtmlWriter& close() {
    CCMX_REQUIRE(!stack_.empty(), "html: close() with no open element");
    out_ += "</" + stack_.back() + ">";
    stack_.pop_back();
    return *this;
  }

  /// Self-closing element (<rect .../>); valid in the SVG namespace and
  /// for HTML void elements.
  HtmlWriter& leaf(std::string_view tag, const Attrs& attrs = {}) {
    emit_tag(tag, attrs, /*self_close=*/true);
    return *this;
  }

  HtmlWriter& text(std::string_view raw) {
    out_ += html_escape(raw);
    return *this;
  }

  /// Open + text + close in one call.
  HtmlWriter& element(std::string_view tag, const Attrs& attrs,
                      std::string_view body) {
    open(tag, attrs);
    text(body);
    return close();
  }

  /// Pre-escaped content (the <style> block, the JSON data island).
  HtmlWriter& raw(std::string_view pre_escaped) {
    out_ += pre_escaped;
    return *this;
  }

  HtmlWriter& newline() {
    out_ += '\n';
    return *this;
  }

  [[nodiscard]] std::string finish() {
    CCMX_REQUIRE(stack_.empty(), "html: finish() with unclosed <" +
                                     (stack_.empty() ? "" : stack_.back()) +
                                     ">");
    return std::move(out_);
  }

 private:
  void emit_tag(std::string_view tag, const Attrs& attrs, bool self_close) {
    out_ += '<';
    out_ += tag;
    for (const auto& [name, value] : attrs) {
      out_ += ' ';
      out_ += name;
      out_ += "=\"";
      out_ += html_escape(value);
      out_ += '"';
    }
    out_ += self_close ? "/>" : ">";
  }

  std::string out_;
  std::vector<std::string> stack_;
};

std::string fmt_us(std::int64_t us) {
  const double d = static_cast<double>(us);
  if (us >= 2'000'000) return fmt_fixed(d * 1e-6, 2) + " s";
  if (us >= 2'000) return fmt_fixed(d * 1e-3, 2) + " ms";
  return std::to_string(us) + " \xC2\xB5s";  // µs
}

std::string fmt_count(std::uint64_t n) {
  std::string digits = std::to_string(n);
  std::string out;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (digits.size() - i) % 3 == 0) out += "\xE2\x80\xAF";  // ' '
    out += digits[i];
  }
  return out;
}

std::string fmt_svg(double v) {
  // SVG coordinates: one decimal is plenty and keeps the file small.
  return fmt_fixed(v, 1);
}

double number_or(const json::Value& obj, std::string_view key,
                 double fallback) {
  const json::Value* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->number : fallback;
}

std::string string_or(const json::Value& obj, std::string_view key,
                      std::string_view fallback) {
  const json::Value* v = obj.find(key);
  return v != nullptr && v->is_string() ? v->string : std::string(fallback);
}

/// Fixed categorical assignment (see docs: color follows the entity):
/// the first 7 distinct names by rank get the palette slots in order,
/// everything else folds to the muted "other" tone.
constexpr std::size_t kCategoricalSlots = 7;

std::string series_var(std::size_t slot) {
  return "var(--s" + std::to_string(slot + 1) + ")";
}

// --------------------------------------------------------------- styles

// The palette is the dataviz reference instance: light/dark surfaces and
// ink plus seven categorical slots, declared once as custom properties
// so both modes share one chart body.  No external fonts, no fetches.
constexpr std::string_view kStyle = R"css(
:root {
  color-scheme: light dark;
  --page: #f9f9f7; --surface: #fcfcfb;
  --ink: #0b0b0b; --ink2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --border: rgba(11,11,11,0.10);
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a; --s4: #eda100;
  --s5: #e87ba4; --s6: #008300; --s7: #4a3aa7; --other: #898781;
  --good: #006300; --bad: #d03b3b; --warnc: #ec835a;
}
@media (prefers-color-scheme: dark) {
  :root {
    --page: #0d0d0d; --surface: #1a1a19;
    --ink: #ffffff; --ink2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --border: rgba(255,255,255,0.10);
    --s1: #3987e5; --s2: #d95926; --s3: #199e70; --s4: #c98500;
    --s5: #d55181; --s6: #008300; --s7: #9085e9;
    --good: #0ca30c; --bad: #e66767; --warnc: #ec835a;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--page); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
main { max-width: 1080px; margin: 0 auto; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 28px 0 10px; }
.provenance { color: var(--ink2); margin: 0 0 18px; }
.note { color: var(--muted); font-style: italic; }
section.card {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 14px 16px; margin: 0 0 16px;
}
table { border-collapse: collapse; width: 100%; margin: 6px 0; }
th, td { text-align: left; padding: 4px 10px 4px 0; white-space: nowrap; }
th { color: var(--muted); font-weight: 600; border-bottom: 1px solid var(--grid); }
td { border-bottom: 1px solid var(--grid); }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
tr:last-child td { border-bottom: none; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 8px 0; }
.tile {
  border: 1px solid var(--border); border-radius: 6px;
  padding: 8px 14px; min-width: 120px;
}
.tile .v { font-size: 20px; }
.tile .k { color: var(--muted); font-size: 12px; }
.chip {
  display: inline-block; width: 10px; height: 10px; border-radius: 2px;
  margin-right: 6px; vertical-align: baseline;
}
.legend { color: var(--ink2); font-size: 12px; margin: 4px 0; }
.legend span.item { margin-right: 14px; }
.verdict-regression { color: var(--bad); font-weight: 600; }
.verdict-improvement { color: var(--good); font-weight: 600; }
.verdict-neutral { color: var(--muted); }
.problems { color: var(--warnc); }
svg { display: block; }
svg text { font: 11px system-ui, -apple-system, "Segoe UI", sans-serif; }
footer { color: var(--muted); margin-top: 24px; font-size: 12px; }
)css";

// ---------------------------------------------------------- the renderer

class Dashboard {
 public:
  explicit Dashboard(const DashboardData& data) : data_(data) {}

  std::string render() {
    w_.raw("<!DOCTYPE html>").newline();
    w_.open("html", {{"lang", "en"}});
    head();
    w_.open("body");
    w_.open("main");
    header();
    reports_section();
    timeseries_section();
    diff_section();
    arch_section();
    traffic_section();
    pipeline_section();
    flame_section();
    profile_section();
    data_island();
    w_.open("footer");
    w_.text(
        "Generated by ccmx_insight html \xE2\x80\x94 one self-contained "
        "file: inline SVG and CSS only, no scripts, no external "
        "resources. The run-report JSON this page was rendered from is "
        "embedded in the ");
    w_.element("code", {}, "ccmx-dashboard-data");
    w_.text(" island above.");
    w_.close();  // footer
    w_.close();  // main
    w_.close();  // body
    w_.close();  // html
    w_.newline();
    return w_.finish();
  }

 private:
  void head() {
    w_.open("head");
    w_.leaf("meta", {{"charset", "utf-8"}});
    w_.leaf("meta", {{"name", "viewport"},
                     {"content", "width=device-width, initial-scale=1"}});
    w_.element("title", {},
               data_.title.empty() ? "ccmx dashboard" : data_.title);
    w_.open("style").raw(kStyle).close();
    w_.close();  // head
  }

  void header() {
    w_.element("h1", {},
               data_.title.empty() ? "ccmx observability dashboard"
                                   : data_.title);
    if (!data_.provenance.empty()) {
      w_.element("p", {{"class", "provenance"}}, data_.provenance);
    }
  }

  // ---- run reports -----------------------------------------------------

  void reports_section() {
    w_.open("section", {{"class", "card"}});
    w_.element("h2", {}, "Run reports");
    const LoadResult& loaded = *data_.reports;
    if (loaded.reports.empty()) {
      w_.element("p", {{"class", "note"}}, "No valid run reports loaded.");
    } else {
      w_.open("table");
      w_.open("thead").open("tr");
      for (const char* h : {"report", "git", "build"}) {
        w_.element("th", {}, h);
      }
      for (const char* h :
           {"wall s", "cpu s", "max RSS", "benchmarks", "errors"}) {
        w_.element("th", {{"class", "num"}}, h);
      }
      w_.close().close();  // tr, thead
      w_.open("tbody");
      for (const LoadedReport& report : loaded.reports) {
        w_.open("tr");
        w_.element("td", {}, report.name);
        w_.element("td", {}, report.git_sha.substr(0, 12));
        w_.element("td", {}, report.build_type);
        w_.element("td", {{"class", "num"}},
                   fmt_fixed(report.wall_seconds, 2));
        w_.element("td", {{"class", "num"}},
                   fmt_fixed(report.cpu_seconds, 2));
        w_.element("td", {{"class", "num"}},
                   report.max_rss_bytes > 0
                       ? fmt_fixed(
                             static_cast<double>(report.max_rss_bytes) /
                                 (1024.0 * 1024.0),
                             1) + " MiB"
                       : std::string("\xE2\x80\x94"));
        std::size_t benches = 0;
        std::size_t errors = 0;
        if (const json::Value* rows = report.doc.find("benchmarks")) {
          if (rows->is_array()) {
            benches = rows->array.size();
            for (const json::Value& row : rows->array) {
              const json::Value* err = row.find("error");
              if (err != nullptr && err->is_bool() && err->boolean) ++errors;
            }
          }
        }
        w_.element("td", {{"class", "num"}}, fmt_count(benches));
        w_.element("td",
                   {{"class", errors != 0 ? "num verdict-regression"
                                          : "num"}},
                   fmt_count(errors));
        w_.close();  // tr
      }
      w_.close().close();  // tbody, table
      hw_table(loaded);
    }
    for (const std::string& problem : loaded.problems) {
      w_.element("p", {{"class", "problems"}}, "\xE2\x9A\xA0 " + problem);
    }
    w_.close();  // section
  }

  /// Hardware-counter attribution per report.  Degraded machines render
  /// the reason, never zeros masquerading as measurements; reports from
  /// before the hw block get an em-dash row.
  void hw_table(const LoadResult& loaded) {
    bool any_hw_block = false;
    for (const LoadedReport& report : loaded.reports) {
      const json::Value* hw = report.doc.find("hw");
      if (hw != nullptr && hw->is_object()) any_hw_block = true;
    }
    if (!any_hw_block) {
      w_.element("p", {{"class", "note"}},
                 "No report carries an hw block (pre-hw reports).");
      return;
    }
    w_.element("p", {{"class", "legend"}},
               "Hardware counters over the whole process "
               "(perf_event_open, multiplex-scaled).");
    w_.open("table");
    w_.open("thead").open("tr");
    w_.element("th", {}, "report");
    for (const char* h :
         {"instructions", "cycles", "IPC", "cache miss", "task clock"}) {
      w_.element("th", {{"class", "num"}}, h);
    }
    w_.close().close();  // tr, thead
    w_.open("tbody");
    for (const LoadedReport& report : loaded.reports) {
      w_.open("tr");
      w_.element("td", {}, report.name);
      const json::Value* hw = report.doc.find("hw");
      const json::Value* avail =
          hw != nullptr && hw->is_object() ? hw->find("available") : nullptr;
      if (avail != nullptr && avail->is_bool() && avail->boolean) {
        w_.element("td", {{"class", "num"}},
                   fmt_count(static_cast<std::uint64_t>(
                       number_or(*hw, "instructions", 0.0))));
        w_.element("td", {{"class", "num"}},
                   fmt_count(static_cast<std::uint64_t>(
                       number_or(*hw, "cycles", 0.0))));
        w_.element("td", {{"class", "num"}},
                   fmt_fixed(number_or(*hw, "ipc", 0.0), 2));
        w_.element("td", {{"class", "num"}},
                   fmt_fixed(number_or(*hw, "cache_miss_rate", 0.0) * 100.0,
                             1) + " %");
        w_.element("td", {{"class", "num"}},
                   fmt_us(static_cast<std::int64_t>(
                       number_or(*hw, "task_clock_ns", 0.0) / 1000.0)));
      } else {
        const bool has_block = hw != nullptr && hw->is_object();
        w_.open("td",
                {{"class", "num verdict-neutral"}, {"colspan", "5"}});
        w_.text(has_block
                    ? "unavailable \xE2\x80\x94 " +
                          string_or(*hw, "reason", "no reason recorded")
                    : "no hw block (pre-hw report)");
        w_.close();
      }
      w_.close();  // tr
    }
    w_.close().close();  // tbody, table
  }

  // ---- telemetry timeseries --------------------------------------------

  void timeseries_section() {
    w_.open("section", {{"class", "card"}});
    w_.element("h2", {}, "Telemetry over the run");
    if (data_.timeseries == nullptr) {
      w_.element("p", {{"class", "note"}},
                 "No telemetry series provided (set CCMX_SAMPLE_FILE on the "
                 "run, then pass --timeseries).");
      w_.close();
      return;
    }
    const TimeseriesResult& ts = *data_.timeseries;
    if (ts.rows.empty()) {
      w_.element("p", {{"class", "note"}},
                 "No " + std::string(kTimeseriesSchema) + " rows in " +
                     ts.path + ".");
      for (const std::string& problem : ts.problems) {
        w_.element("p", {{"class", "problems"}}, "\xE2\x9A\xA0 " + problem);
      }
      w_.close();
      return;
    }

    // One point per sampler tick; hw-derived series only exist where the
    // machine exposed counters (degraded runs still get the RSS line).
    std::vector<std::pair<double, double>> rss;
    std::vector<std::pair<double, double>> ipc;
    std::vector<std::pair<double, double>> insn_rate;
    for (const TimeseriesRow& row : ts.rows) {
      const double t = static_cast<double>(row.t_us) / 1e6;
      rss.emplace_back(t, static_cast<double>(row.rss_bytes) /
                              (1024.0 * 1024.0));
      if (row.hw_available && row.cycles > 0) {
        ipc.emplace_back(t, static_cast<double>(row.instructions) /
                                static_cast<double>(row.cycles));
      }
      if (row.hw_available && row.dt_us > 0) {
        insn_rate.emplace_back(
            t, static_cast<double>(row.instructions) /
                   (static_cast<double>(row.dt_us) / 1e6));
      }
    }
    std::string legend = std::to_string(ts.rows.size()) +
                         " sample(s) over " +
                         fmt_fixed(ts.span_seconds(), 2) + " s from " +
                         ts.path;
    if (ts.skipped > 0) {
      legend += " (" + std::to_string(ts.skipped) + " line(s) skipped)";
    }
    w_.element("p", {{"class", "legend"}}, legend);

    w_.open("table");
    w_.open("thead").open("tr");
    w_.element("th", {}, "metric");
    w_.element("th", {}, "over the run");
    w_.element("th", {{"class", "num"}}, "min");
    w_.element("th", {{"class", "num"}}, "max");
    w_.element("th", {{"class", "num"}}, "last");
    w_.close().close();  // tr, thead
    w_.open("tbody");
    timeseries_metric_row("RSS (MiB)", rss, 1);
    if (ipc.empty() && insn_rate.empty()) {
      w_.open("tr");
      w_.element("td", {}, "hardware counters");
      w_.open("td", {{"class", "verdict-neutral"}, {"colspan", "4"}});
      w_.text("unavailable on this machine (see the hw table above)");
      w_.close();
      w_.close();  // tr
    } else {
      timeseries_metric_row("IPC", ipc, 2);
      timeseries_metric_row("instructions / s", insn_rate, 0);
    }
    w_.close().close();  // tbody, table
    for (const std::string& problem : ts.problems) {
      w_.element("p", {{"class", "problems"}}, "\xE2\x9A\xA0 " + problem);
    }
    w_.close();  // section
  }

  void timeseries_metric_row(const std::string& label,
                             const std::vector<std::pair<double, double>>& pts,
                             int digits) {
    w_.open("tr");
    w_.element("td", {}, label);
    if (pts.empty()) {
      w_.open("td", {{"class", "verdict-neutral"}, {"colspan", "4"}});
      w_.text("\xE2\x80\x94");
      w_.close();
      w_.close();  // tr
      return;
    }
    double y_min = pts.front().second;
    double y_max = y_min;
    for (const auto& [t, y] : pts) {
      y_min = std::min(y_min, y);
      y_max = std::max(y_max, y);
    }
    w_.open("td");
    spark(pts, label + ": " + std::to_string(pts.size()) + " samples, " +
                   fmt_fixed(y_min, digits) + " .. " +
                   fmt_fixed(y_max, digits));
    w_.close();
    w_.element("td", {{"class", "num"}}, fmt_fixed(y_min, digits));
    w_.element("td", {{"class", "num"}}, fmt_fixed(y_max, digits));
    w_.element("td", {{"class", "num"}},
               fmt_fixed(pts.back().second, digits));
    w_.close();  // tr
  }

  /// One 220x40 sparkline over (x, y) points with a hover title.
  void spark(const std::vector<std::pair<double, double>>& pts,
             const std::string& tooltip) {
    constexpr double kW = 220.0;
    constexpr double kH = 40.0;
    constexpr double kPad = 3.0;
    double t_min = pts.front().first;
    double t_max = pts.back().first;
    double y_min = pts.front().second;
    double y_max = y_min;
    for (const auto& [t, y] : pts) {
      y_min = std::min(y_min, y);
      y_max = std::max(y_max, y);
    }
    const double t_span = t_max > t_min ? t_max - t_min : 1.0;
    const double y_span = y_max > y_min ? y_max - y_min : 1.0;
    const auto x_of = [&](double t) {
      return kPad + (t - t_min) / t_span * (kW - 2 * kPad);
    };
    const auto y_of = [&](double y) {
      return kH - kPad - (y - y_min) / y_span * (kH - 2 * kPad);
    };

    w_.open("svg", {{"viewBox", "0 0 220 40"},
                    {"width", "220"},
                    {"height", "40"},
                    {"role", "img"}});
    w_.element("title", {}, tooltip);
    // Hairline baseline so a flat series still reads as "on the floor".
    w_.leaf("line", {{"x1", fmt_svg(kPad)},
                     {"y1", fmt_svg(kH - kPad)},
                     {"x2", fmt_svg(kW - kPad)},
                     {"y2", fmt_svg(kH - kPad)},
                     {"stroke", "var(--axis)"},
                     {"stroke-width", "1"}});
    std::string points_attr;
    for (const auto& [t, y] : pts) {
      if (!points_attr.empty()) points_attr += ' ';
      points_attr += fmt_svg(x_of(t)) + ',' + fmt_svg(y_of(y));
    }
    if (pts.size() == 1) {
      // A polyline needs two points; a single sample renders as its dot.
    } else {
      w_.leaf("polyline", {{"points", points_attr},
                           {"fill", "none"},
                           {"stroke", "var(--s1)"},
                           {"stroke-width", "2"},
                           {"stroke-linecap", "round"},
                           {"stroke-linejoin", "round"}});
    }
    w_.leaf("circle", {{"cx", fmt_svg(x_of(pts.back().first))},
                       {"cy", fmt_svg(y_of(pts.back().second))},
                       {"r", "3"},
                       {"fill", "var(--s1)"}});
    w_.close();  // svg
  }

  // ---- bench diff verdicts ---------------------------------------------

  void diff_section() {
    w_.open("section", {{"class", "card"}});
    w_.element("h2", {}, "Perf gate (bench diff)");
    if (data_.diff == nullptr) {
      w_.element("p", {{"class", "note"}},
                 "No bench diff provided (pass --diff bench_diff.json).");
      w_.close();
      return;
    }
    const json::Value& diff = *data_.diff;
    w_.element("p", {{"class", "legend"}},
               string_or(diff, "baseline_dir", "?") + "  \xE2\x86\x92  " +
                   string_or(diff, "candidate_dir", "?"));
    // The exact gate: each table counter that is not "equal", with both
    // sides (the validator guarantees the rows' members).
    if (const json::Value* counters = diff.find("counters")) {
      for (const json::Value& row : counters->array) {
        const std::string verdict = string_or(row, "verdict", "?");
        if (verdict == "equal") continue;
        w_.element("p", {{"class", "problems"}},
                   "\xE2\x96\xB2 " + string_or(row, "report", "?") + " / " +
                       string_or(row, "counter", "?") + ": " +
                       fmt_fixed(number_or(row, "baseline", 0.0), 0) +
                       " \xE2\x86\x92 " +
                       fmt_fixed(number_or(row, "candidate", 0.0), 0) + " (" +
                       verdict + ")");
      }
    }
    const json::Value* benchmarks = diff.find("benchmarks");
    if (benchmarks == nullptr || !benchmarks->is_array() ||
        benchmarks->array.empty()) {
      w_.element("p", {{"class", "note"}}, "The diff holds no benchmarks.");
      w_.close();
      return;
    }
    w_.open("table");
    w_.open("thead").open("tr");
    w_.element("th", {}, "report / benchmark");
    w_.element("th", {{"class", "num"}}, "baseline cpu");
    w_.element("th", {{"class", "num"}}, "candidate cpu");
    w_.element("th", {{"class", "num"}}, "ratio");
    w_.element("th", {}, "verdict");
    w_.close().close();  // tr, thead
    w_.open("tbody");
    for (const json::Value& row : benchmarks->array) {
      if (!row.is_object()) continue;
      w_.open("tr");
      w_.element("td", {},
                 string_or(row, "report", "?") + " / " +
                     string_or(row, "benchmark", "?"));
      w_.element("td", {{"class", "num"}},
                 fmt_fixed(number_or(row, "baseline_cpu", 0.0), 3));
      w_.element("td", {{"class", "num"}},
                 fmt_fixed(number_or(row, "candidate_cpu", 0.0), 3));
      const double ratio = number_or(row, "ratio", 0.0);
      w_.element("td", {{"class", "num"}},
                 ratio > 0.0 ? fmt_fixed(ratio, 3)
                             : std::string("\xE2\x80\x94"));
      const std::string verdict = string_or(row, "verdict", "?");
      std::string cls = "verdict-neutral";
      std::string marker;
      if (verdict == "regression") {
        cls = "verdict-regression";
        marker = "\xE2\x96\xB2 ";
      } else if (verdict == "improvement") {
        cls = "verdict-improvement";
        marker = "\xE2\x96\xBC ";
      }
      w_.element("td", {{"class", cls}}, marker + verdict);
      w_.close();  // tr
    }
    w_.close().close();  // tbody, table
    w_.close();          // section
  }

  // ---- architecture ------------------------------------------------------

  void arch_section() {
    w_.open("section", {{"class", "card"}});
    w_.element("h2", {}, "Architecture (include graph)");
    if (data_.arch == nullptr) {
      w_.element("p", {{"class", "note"}},
                 "No architecture report provided (pass --arch "
                 "arch_report.json from ccmx_lint arch --json).");
      w_.close();
      return;
    }
    const json::Value& arch = *data_.arch;
    w_.element(
        "p", {{"class", "legend"}},
        fmt_count(static_cast<std::uint64_t>(
            number_or(arch, "files_scanned", 0.0))) +
            " file(s), " +
            fmt_count(static_cast<std::uint64_t>(
                number_or(arch, "include_edges", 0.0))) +
            " include edge(s); modules sorted by declared layer.");
    const json::Value* modules = arch.find("modules");
    if (modules != nullptr && modules->is_array() &&
        !modules->array.empty()) {
      w_.open("table");
      w_.open("thead").open("tr");
      w_.element("th", {}, "module");
      w_.element("th", {{"class", "num"}}, "layer");
      w_.element("th", {{"class", "num"}}, "files");
      w_.element("th", {{"class", "num"}}, "fan-out");
      w_.element("th", {{"class", "num"}}, "fan-in");
      w_.element("th", {}, "depends on");
      w_.close().close();  // tr, thead
      w_.open("tbody");
      for (const json::Value& row : modules->array) {
        if (!row.is_object()) continue;
        w_.open("tr");
        w_.element("td", {}, string_or(row, "name", "?"));
        w_.element("td", {{"class", "num"}},
                   fmt_fixed(number_or(row, "layer", -1.0), 0));
        w_.element("td", {{"class", "num"}},
                   fmt_count(static_cast<std::uint64_t>(
                       number_or(row, "files", 0.0))));
        w_.element("td", {{"class", "num"}},
                   fmt_count(static_cast<std::uint64_t>(
                       number_or(row, "fan_out", 0.0))));
        w_.element("td", {{"class", "num"}},
                   fmt_count(static_cast<std::uint64_t>(
                       number_or(row, "fan_in", 0.0))));
        std::string deps;
        const json::Value* dep_list = row.find("deps");
        if (dep_list != nullptr && dep_list->is_array()) {
          for (const json::Value& dep : dep_list->array) {
            if (!dep.is_string()) continue;
            if (!deps.empty()) deps += ", ";
            deps += dep.string;
          }
        }
        w_.element("td", {},
                   deps.empty() ? std::string("\xE2\x80\x94") : deps);
        w_.close();  // tr
      }
      w_.close().close();  // tbody, table
    }
    const json::Value* findings = arch.find("findings");
    const std::size_t open_count =
        findings != nullptr && findings->is_array() ? findings->array.size()
                                                    : 0;
    if (open_count == 0) {
      w_.element("p", {{"class", "note"}},
                 "No open architecture violations \xE2\x80\x94 the include "
                 "graph matches the declared layering.");
    } else {
      w_.element("p", {{"class", "legend verdict-regression"}},
                 "\xE2\x96\xB2 " + std::to_string(open_count) +
                     " open violation(s):");
      w_.open("ul", {{"class", "problems"}});
      for (const json::Value& f : findings->array) {
        if (!f.is_object()) continue;
        w_.element("li", {},
                   string_or(f, "file", "?") + ":" +
                       fmt_fixed(number_or(f, "line", 0.0), 0) + " [" +
                       string_or(f, "rule", "?") + "] " +
                       string_or(f, "message", ""));
      }
      w_.close();  // ul
    }
    w_.close();  // section
  }

  // ---- channel traffic --------------------------------------------------

  void traffic_section() {
    w_.open("section", {{"class", "card"}});
    w_.element("h2", {}, "Channel traffic");
    if (data_.trace == nullptr || data_.trace->send_events == 0) {
      w_.element("p", {{"class", "note"}},
                 "No channel trace provided (pass --trace run.trace.jsonl).");
      w_.close();
      return;
    }
    const ChannelTrace& trace = *data_.trace;
    const auto tile = [&](std::string_view value, std::string_view key) {
      w_.open("div", {{"class", "tile"}});
      w_.element("div", {{"class", "v"}}, value);
      w_.element("div", {{"class", "k"}}, key);
      w_.close();
    };
    w_.open("div", {{"class", "tiles"}});
    tile(fmt_count(trace.total_bits()), "bits on the wire");
    tile(fmt_count(trace.send_events), "messages");
    tile(fmt_count(trace.total_rounds()), "rounds");
    tile(fmt_count(trace.channels.size()), "protocol executions");
    tile(fmt_count(trace.agents[0].bits), "agent0 bits");
    tile(fmt_count(trace.agents[1].bits), "agent1 bits");
    w_.close();  // tiles

    // Bits per round, split by speaking agent — the message-passing
    // lens: rounds 1..8 match the comm.bits.roundN counters, deeper
    // rounds fold into the same overflow bucket the counters use.
    constexpr std::size_t kRounds = 8;
    std::uint64_t by_round[2][kRounds + 1] = {};
    for (const ChannelStats& ch : trace.channels) {
      for (const RoundStats& round : ch.rounds) {
        const std::size_t bucket =
            round.round >= 1 && round.round <= kRounds ? round.round - 1
                                                       : kRounds;
        by_round[round.speaker][bucket] += round.bits;
      }
    }
    std::size_t buckets = 0;
    std::uint64_t tallest = 0;
    for (std::size_t b = 0; b <= kRounds; ++b) {
      const std::uint64_t total = by_round[0][b] + by_round[1][b];
      if (total > 0) buckets = b + 1;
      tallest = std::max(tallest, total);
    }
    if (buckets == 0 || tallest == 0) {
      w_.close();  // section
      return;
    }

    w_.element("h2", {}, "Bits per round");
    w_.open("p", {{"class", "legend"}});
    w_.open("span", {{"class", "item"}});
    w_.leaf("span",
            {{"class", "chip"}, {"style", "background:var(--s1)"}});
    w_.text("agent0");
    w_.close();
    w_.open("span", {{"class", "item"}});
    w_.leaf("span",
            {{"class", "chip"}, {"style", "background:var(--s2)"}});
    w_.text("agent1");
    w_.close();
    w_.close();  // p.legend

    constexpr double kH = 130.0;
    constexpr double kBase = 110.0;  // baseline y
    constexpr double kBarW = 34.0;
    constexpr double kGap = 14.0;
    const double width = 8.0 + static_cast<double>(buckets) * (kBarW + kGap);
    w_.open("svg", {{"viewBox",
                     "0 0 " + fmt_svg(width) + " " + fmt_svg(kH)},
                    {"width", fmt_svg(width)},
                    {"height", fmt_svg(kH)},
                    {"role", "img"}});
    w_.element("title", {}, "bits per round, split by speaking agent");
    w_.leaf("line", {{"x1", "4"},
                     {"y1", fmt_svg(kBase)},
                     {"x2", fmt_svg(width - 4.0)},
                     {"y2", fmt_svg(kBase)},
                     {"stroke", "var(--axis)"},
                     {"stroke-width", "1"}});
    for (std::size_t b = 0; b < buckets; ++b) {
      const double x = 8.0 + static_cast<double>(b) * (kBarW + kGap);
      double y = kBase;
      // Stacked segments, 2px surface gap between them (skill: spacers).
      for (unsigned agent = 0; agent < 2; ++agent) {
        const std::uint64_t bits = by_round[agent][b];
        if (bits == 0) continue;
        const double h = std::max(
            2.0, static_cast<double>(bits) /
                     static_cast<double>(tallest) * (kBase - 24.0));
        y -= h;
        w_.open("rect", {{"x", fmt_svg(x)},
                         {"y", fmt_svg(y)},
                         {"width", fmt_svg(kBarW)},
                         {"height", fmt_svg(h)},
                         {"rx", "2"},
                         {"fill", series_var(agent)},
                         {"stroke", "var(--surface)"},
                         {"stroke-width", "2"}});
        w_.element("title", {},
                   "round " + (b < kRounds ? std::to_string(b + 1)
                                           : std::string("overflow")) +
                       ", agent" + std::to_string(agent) + ": " +
                       fmt_count(bits) + " bits");
        w_.close();  // rect
      }
      const std::uint64_t total = by_round[0][b] + by_round[1][b];
      w_.element("text",
                 {{"x", fmt_svg(x + kBarW / 2)},
                  {"y", fmt_svg(y - 6.0)},
                  {"text-anchor", "middle"},
                  {"fill", "var(--ink2)"}},
                 fmt_count(total));
      w_.element("text",
                 {{"x", fmt_svg(x + kBarW / 2)},
                  {"y", fmt_svg(kBase + 14.0)},
                  {"text-anchor", "middle"},
                  {"fill", "var(--muted)"}},
                 b < kRounds ? "r" + std::to_string(b + 1)
                             : std::string("overflow"));
    }
    w_.close();  // svg
    w_.close();  // section
  }

  // ---- trace pipeline ---------------------------------------------------

  /// Health of the async event pipeline: per-report emitted/dropped
  /// conservation and self-overhead (obs.trace.* / obs.overhead.*
  /// counters), plus the streaming reader's own stats for the rendered
  /// trace.  Dropped events are never silent — this is where they show.
  void pipeline_section() {
    w_.open("section", {{"class", "card"}});
    w_.element("h2", {}, "Trace pipeline");

    const auto counter = [](const json::Value& doc, std::string_view name) {
      const json::Value* counters = doc.find("counters");
      if (counters == nullptr || !counters->is_object()) return -1.0;
      return number_or(*counters, name, -1.0);
    };
    std::vector<const LoadedReport*> piped;
    for (const LoadedReport& report : data_.reports->reports) {
      if (counter(report.doc, "obs.trace.emitted") >= 0.0) {
        piped.push_back(&report);
      }
    }
    if (piped.empty() && data_.trace_stats == nullptr) {
      w_.element("p", {{"class", "note"}},
                 "No report carries obs.trace.* counters and no streamed "
                 "trace was read.");
      w_.close();
      return;
    }

    if (data_.trace_stats != nullptr) {
      const TraceReadStats& stats = *data_.trace_stats;
      const auto tile = [&](std::string_view value, std::string_view key) {
        w_.open("div", {{"class", "tile"}});
        w_.element("div", {{"class", "v"}}, value);
        w_.element("div", {{"class", "k"}}, key);
        w_.close();
      };
      w_.open("div", {{"class", "tiles"}});
      tile(fmt_count(stats.lines), "trace lines read");
      tile(stats.truncated_tail ? "torn" : "clean", "final line");
      w_.close();  // tiles
    }

    if (!piped.empty()) {
      w_.open("table");
      w_.open("thead").open("tr");
      w_.element("th", {}, "report");
      w_.element("th", {{"class", "num"}}, "emitted");
      w_.element("th", {{"class", "num"}}, "dropped");
      w_.element("th", {{"class", "num"}}, "open failed");
      w_.element("th", {{"class", "num"}}, "ns / emit");
      w_.element("th", {{"class", "num"}}, "drain ms");
      w_.element("th", {{"class", "num"}}, "flush ms");
      w_.element("th", {}, "verdict");
      w_.close().close();  // tr, thead
      w_.open("tbody");
      for (const LoadedReport* report : piped) {
        const double emitted = counter(report->doc, "obs.trace.emitted");
        const double dropped =
            std::max(0.0, counter(report->doc, "obs.trace.dropped"));
        const double open_failed =
            std::max(0.0, counter(report->doc, "obs.trace.open_failed"));
        const double emit_ns = counter(report->doc, "obs.overhead.emit_ns");
        const double drain_ns = counter(report->doc, "obs.overhead.drain_ns");
        const double flush_ns = counter(report->doc, "obs.overhead.flush_ns");
        w_.open("tr");
        w_.element("td", {}, report->name);
        w_.element("td", {{"class", "num"}},
                   fmt_count(static_cast<std::uint64_t>(emitted)));
        w_.element("td", {{"class", "num"}},
                   fmt_count(static_cast<std::uint64_t>(dropped)));
        w_.element("td", {{"class", "num"}},
                   fmt_count(static_cast<std::uint64_t>(open_failed)));
        w_.element("td", {{"class", "num"}},
                   emit_ns >= 0.0 && emitted > 0.0
                       ? fmt_fixed(emit_ns / emitted, 0)
                       : std::string("\xE2\x80\x94"));
        w_.element("td", {{"class", "num"}},
                   drain_ns >= 0.0 ? fmt_fixed(drain_ns * 1e-6, 2)
                                   : std::string("\xE2\x80\x94"));
        w_.element("td", {{"class", "num"}},
                   flush_ns >= 0.0 ? fmt_fixed(flush_ns * 1e-6, 2)
                                   : std::string("\xE2\x80\x94"));
        const bool truncated = dropped > 0.0 || open_failed > 0.0;
        w_.element("td",
                   {{"class", truncated ? "verdict-regression"
                                        : "verdict-improvement"}},
                   truncated ? "\xE2\x96\xB2 truncated" : "lossless");
        w_.close();  // tr
      }
      w_.close().close();  // tbody, table
    }
    w_.close();  // section
  }

  // ---- span-tree flame view --------------------------------------------

  void flame_section() {
    w_.open("section", {{"class", "card"}});
    w_.element("h2", {}, "Span tree (flame view)");
    if (data_.forest == nullptr || data_.forest->nodes.empty()) {
      w_.element("p", {{"class", "note"}},
                 "No spans in the trace (run with CCMX_TRACE=1 and "
                 "CCMX_TRACE_FILE set).");
      w_.close();
      return;
    }
    const SpanForest& forest = *data_.forest;

    // Fixed categorical assignment: slots go to the biggest span names
    // by total duration, in one deterministic pass; the rest share the
    // muted tone (identity still carried by label + tooltip).
    std::map<std::string, std::int64_t> total_by_name;
    std::map<std::string, std::int64_t> self_by_name;
    std::map<std::string, std::uint64_t> count_by_name;
    for (const SpanNode& node : forest.nodes) {
      const SpanEvent& span = forest.spans[node.span];
      total_by_name[span.name] += span.dur_us;
      self_by_name[span.name] += node.self_us;
      count_by_name[span.name] += 1;
    }
    std::vector<std::pair<std::string, std::int64_t>> ranked(
        total_by_name.begin(), total_by_name.end());
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) {
                return a.second != b.second ? a.second > b.second
                                            : a.first < b.first;
              });
    std::map<std::string, std::size_t> slot_of;
    for (std::size_t i = 0;
         i < ranked.size() && i < kCategoricalSlots; ++i) {
      slot_of[ranked[i].first] = i;
    }
    const auto fill_of = [&](const std::string& name) {
      const auto it = slot_of.find(name);
      return it != slot_of.end() ? series_var(it->second)
                                 : std::string("var(--other)");
    };

    w_.open("p", {{"class", "legend"}});
    for (std::size_t i = 0; i < ranked.size() && i < kCategoricalSlots;
         ++i) {
      w_.open("span", {{"class", "item"}});
      w_.leaf("span", {{"class", "chip"},
                       {"style", "background:" + series_var(i)}});
      w_.text(ranked[i].first);
      w_.close();
    }
    if (ranked.size() > kCategoricalSlots) {
      w_.open("span", {{"class", "item"}});
      w_.leaf("span", {{"class", "chip"},
                       {"style", "background:var(--other)"}});
      w_.text("other");
      w_.close();
    }
    w_.close();  // p.legend

    for (const ThreadSpans& thread : forest.threads) {
      flame_svg(forest, thread, fill_of);
    }

    for (const std::string& problem : forest.problems) {
      w_.element("p", {{"class", "problems"}}, "\xE2\x9A\xA0 " + problem);
    }

    // The accessible table view behind the picture: top spans by self
    // time.
    w_.element("h2", {}, "Top spans by self time");
    std::vector<std::pair<std::string, std::int64_t>> by_self(
        self_by_name.begin(), self_by_name.end());
    std::sort(by_self.begin(), by_self.end(),
              [](const auto& a, const auto& b) {
                return a.second != b.second ? a.second > b.second
                                            : a.first < b.first;
              });
    w_.open("table");
    w_.open("thead").open("tr");
    w_.element("th", {}, "span");
    w_.element("th", {{"class", "num"}}, "count");
    w_.element("th", {{"class", "num"}}, "total");
    w_.element("th", {{"class", "num"}}, "self");
    w_.close().close();  // tr, thead
    w_.open("tbody");
    constexpr std::size_t kTopSpans = 12;
    for (std::size_t i = 0; i < by_self.size() && i < kTopSpans; ++i) {
      const std::string& name = by_self[i].first;
      w_.open("tr");
      w_.open("td");
      w_.leaf("span", {{"class", "chip"},
                       {"style", "background:" + fill_of(name)}});
      w_.text(name);
      w_.close();
      w_.element("td", {{"class", "num"}}, fmt_count(count_by_name[name]));
      w_.element("td", {{"class", "num"}}, fmt_us(total_by_name[name]));
      w_.element("td", {{"class", "num"}}, fmt_us(by_self[i].second));
      w_.close();  // tr
    }
    w_.close().close();  // tbody, table
    if (by_self.size() > kTopSpans) {
      w_.element("p", {{"class", "note"}},
                 std::to_string(by_self.size() - kTopSpans) +
                     " further span name(s) omitted.");
    }
    w_.close();  // section
  }

  template <typename FillOf>
  void flame_svg(const SpanForest& forest, const ThreadSpans& thread,
                 const FillOf& fill_of) {
    constexpr double kW = 960.0;
    constexpr double kRow = 20.0;
    const std::int64_t t0 = thread.first_us;
    const std::int64_t span_us = std::max<std::int64_t>(
        1, thread.last_us - thread.first_us);
    std::size_t max_depth = 0;
    std::vector<std::size_t> todo = thread.roots;
    std::vector<std::size_t> order;  // preorder, for a second pass
    while (!todo.empty()) {
      const std::size_t at = todo.back();
      todo.pop_back();
      order.push_back(at);
      max_depth = std::max(max_depth, forest.nodes[at].depth);
      for (const std::size_t child : forest.nodes[at].children) {
        todo.push_back(child);
      }
    }
    const double height = (static_cast<double>(max_depth) + 1.0) * kRow + 4.0;

    w_.element("p", {{"class", "legend"}},
               "thread " + std::to_string(thread.tid) + " \xE2\x80\x94 " +
                   std::to_string(order.size()) + " span(s), " +
                   fmt_us(thread.last_us - thread.first_us) + " from " +
                   fmt_us(thread.first_us) + " after process start");
    w_.open("svg",
            {{"viewBox", "0 0 " + fmt_svg(kW) + " " + fmt_svg(height)},
             {"width", "100%"},
             {"role", "img"},
             {"preserveAspectRatio", "none"},
             {"style", "max-width:" + fmt_svg(kW) + "px;margin:4px 0 12px"}});
    w_.element("title", {},
               "span tree of thread " + std::to_string(thread.tid) +
                   " (depth grows downward)");
    for (const std::size_t at : order) {
      const SpanNode& node = forest.nodes[at];
      const SpanEvent& span = forest.spans[node.span];
      const double x =
          static_cast<double>(span.t_us - t0) / static_cast<double>(span_us) *
          (kW - 8.0) + 4.0;
      const double w = std::max(
          1.0, static_cast<double>(span.dur_us) /
                   static_cast<double>(span_us) * (kW - 8.0));
      const double y = static_cast<double>(node.depth) * kRow + 2.0;
      w_.open("rect", {{"x", fmt_svg(x)},
                       {"y", fmt_svg(y)},
                       {"width", fmt_svg(w)},
                       {"height", fmt_svg(kRow - 4.0)},
                       {"rx", "2"},
                       {"fill", fill_of(span.name)},
                       {"stroke", "var(--surface)"},
                       {"stroke-width", "1"}});
      std::string tooltip = span.name + " \xE2\x80\x94 " +
                            fmt_us(span.dur_us) + " (self " +
                            fmt_us(node.self_us) + "), span " +
                            std::to_string(span.id);
      for (const auto& [key, value] : span.args) {
        tooltip += ", " + key + "=" + value;
      }
      w_.element("title", {}, tooltip);
      w_.close();  // rect
      if (w >= 70.0) {
        w_.element("text",
                   {{"x", fmt_svg(x + 4.0)},
                    {"y", fmt_svg(y + kRow - 8.0)},
                    {"fill", "var(--surface)"}},
                   span.name);
      }
    }
    w_.close();  // svg
  }

  // ---- sampled CPU profile ---------------------------------------------

  /// The statistical twin of flame_section(): where the span flame view
  /// draws *instrumented* intervals on a time axis, this draws a classic
  /// width-proportional flame graph over the SIGPROF *samples* — the
  /// merged trie of collapsed stacks, root row on top, each rectangle's
  /// width the fraction of samples that passed through that frame.
  void profile_section() {
    w_.open("section", {{"class", "card"}});
    w_.element("h2", {}, "Sampled CPU profile (flame graph)");
    if (data_.profile == nullptr) {
      w_.element("p", {{"class", "note"}},
                 "No profile provided (run with CCMX_PROF_HZ set and pass "
                 "--profile).");
      w_.close();
      return;
    }
    const ProfileData& prof = *data_.profile;
    for (const std::string& problem : prof.problems) {
      w_.element("p", {{"class", "problems"}}, "\xE2\x9A\xA0 " + problem);
    }

    std::string ledger_line =
        fmt_count(prof.samples.size()) + " sample(s) at " +
        std::to_string(prof.hz) + " Hz via " +
        (prof.mechanism.empty() ? std::string("?") : prof.mechanism);
    if (prof.has_ledger) {
      ledger_line += " \xE2\x80\x94 ledger: captured " +
                     fmt_count(prof.ledger.captured) + ", written " +
                     fmt_count(prof.ledger.written) + ", dropped " +
                     fmt_count(prof.ledger.dropped) + ", truncated " +
                     fmt_count(prof.ledger.truncated) + ", " +
                     fmt_count(prof.ledger.threads) + " thread(s)";
    }
    w_.element("p", {{"class", "legend"}}, ledger_line);
    if (prof.has_ledger && !prof.ledger_balances()) {
      w_.element("p", {{"class", "problems"}},
                 "\xE2\x9A\xA0 conservation ledger does not balance "
                 "(captured != written + dropped) \xE2\x80\x94 samples "
                 "went missing unaccounted.");
    }
    if (prof.samples.empty()) {
      w_.element("p", {{"class", "note"}},
                 "The profile contains no samples (workload shorter than "
                 "one sampling period?).");
      w_.close();
      return;
    }

    // Categorical colors go to the hottest functions by total samples;
    // everything else shares the muted tone, identity in the tooltip.
    const std::vector<ProfileHotspot> hotspots = profile_hotspots(prof);
    std::vector<std::pair<std::string, std::uint64_t>> ranked;
    ranked.reserve(hotspots.size());
    for (const ProfileHotspot& spot : hotspots) {
      ranked.emplace_back(spot.sym, spot.total);
    }
    std::sort(ranked.begin(), ranked.end(), [](const auto& a,
                                               const auto& b) {
      return a.second != b.second ? a.second > b.second : a.first < b.first;
    });
    std::map<std::string, std::size_t> slot_of;
    for (std::size_t i = 0; i < ranked.size() && i < kCategoricalSlots;
         ++i) {
      slot_of[ranked[i].first] = i;
    }
    const auto fill_of = [&](const std::string& name) {
      const auto it = slot_of.find(name);
      return it != slot_of.end() ? series_var(it->second)
                                 : std::string("var(--other)");
    };
    w_.open("p", {{"class", "legend"}});
    for (std::size_t i = 0; i < ranked.size() && i < kCategoricalSlots;
         ++i) {
      w_.open("span", {{"class", "item"}});
      w_.leaf("span", {{"class", "chip"},
                       {"style", "background:" + series_var(i)}});
      w_.text(ranked[i].first);
      w_.close();
    }
    if (ranked.size() > kCategoricalSlots) {
      w_.open("span", {{"class", "item"}});
      w_.leaf("span", {{"class", "chip"},
                       {"style", "background:var(--other)"}});
      w_.text("other");
      w_.close();
    }
    w_.close();  // p.legend

    profile_flame_svg(prof, fill_of);

    // The accessible table behind the picture: top functions by self
    // samples (leaf hits), with each sample counted once per function so
    // recursion cannot inflate totals.
    w_.element("h2", {}, "Top functions by self samples");
    const double total_samples = static_cast<double>(prof.samples.size());
    w_.open("table");
    w_.open("thead").open("tr");
    w_.element("th", {}, "function");
    w_.element("th", {{"class", "num"}}, "self");
    w_.element("th", {{"class", "num"}}, "total");
    w_.element("th", {{"class", "num"}}, "self %");
    w_.close().close();  // tr, thead
    w_.open("tbody");
    constexpr std::size_t kTopFunctions = 12;
    for (std::size_t i = 0; i < hotspots.size() && i < kTopFunctions; ++i) {
      const ProfileHotspot& spot = hotspots[i];
      w_.open("tr");
      w_.open("td");
      w_.leaf("span", {{"class", "chip"},
                       {"style", "background:" + fill_of(spot.sym)}});
      w_.text(spot.sym);
      w_.close();
      w_.element("td", {{"class", "num"}}, fmt_count(spot.self));
      w_.element("td", {{"class", "num"}}, fmt_count(spot.total));
      w_.element("td", {{"class", "num"}},
                 fmt_fixed(100.0 * static_cast<double>(spot.self) /
                               total_samples,
                           1) +
                     "%");
      w_.close();  // tr
    }
    w_.close().close();  // tbody, table
    if (hotspots.size() > kTopFunctions) {
      w_.element("p", {{"class", "note"}},
                 std::to_string(hotspots.size() - kTopFunctions) +
                     " further function(s) omitted.");
    }

    // Per-span attribution: join the samples' span ids against the span
    // forest rendered above, when a trace was provided too.
    if (data_.forest != nullptr && !data_.forest->spans.empty()) {
      std::map<std::uint64_t, std::string> span_names;
      for (const SpanEvent& span : data_.forest->spans) {
        span_names[span.id] = span.name;
      }
      w_.element("h2", {}, "Samples by span");
      w_.open("table");
      w_.open("thead").open("tr");
      w_.element("th", {}, "span");
      w_.element("th", {{"class", "num"}}, "samples");
      w_.element("th", {{"class", "num"}}, "share");
      w_.close().close();  // tr, thead
      w_.open("tbody");
      for (const auto& [span_id, count] : samples_by_span(prof)) {
        const auto it = span_names.find(span_id);
        std::string label =
            span_id == 0 ? std::string("(outside any span)")
            : it != span_names.end()
                ? it->second + " #" + std::to_string(span_id)
                : "span #" + std::to_string(span_id) + " (not in trace)";
        w_.open("tr");
        w_.element("td", {}, label);
        w_.element("td", {{"class", "num"}}, fmt_count(count));
        w_.element("td", {{"class", "num"}},
                   fmt_fixed(100.0 * static_cast<double>(count) /
                                 total_samples,
                             1) +
                       "%");
        w_.close();  // tr
      }
      w_.close().close();  // tbody, table
    }
    w_.close();  // section
  }

  template <typename FillOf>
  void profile_flame_svg(const ProfileData& prof, const FillOf& fill_of) {
    // Merge the collapsed stacks into a trie.  Children are keyed by
    // symbol, so recursion shows as repeated rows, like flamegraph.pl.
    struct TrieNode {
      std::string name;
      std::uint64_t count = 0;
      std::map<std::string, std::size_t> kids;
    };
    std::vector<TrieNode> trie(1);  // 0 = synthetic root ("all samples")
    std::uint64_t rooted = 0;
    std::size_t max_depth = 0;
    for (const auto& [folded, count] : collapsed_stacks(prof)) {
      std::size_t at = 0;
      trie[0].count += count;
      rooted += count;
      std::size_t depth = 0;
      std::size_t begin = 0;
      while (begin <= folded.size()) {
        const std::size_t semi = folded.find(';', begin);
        const std::string sym = folded.substr(
            begin, semi == std::string::npos ? std::string::npos
                                             : semi - begin);
        const auto [it, inserted] =
            trie[at].kids.emplace(sym, trie.size());
        if (inserted) {
          trie.push_back(TrieNode{});
          trie.back().name = sym;
        }
        at = it->second;
        trie[at].count += count;
        ++depth;
        if (semi == std::string::npos) break;
        begin = semi + 1;
      }
      max_depth = std::max(max_depth, depth);
    }
    if (rooted == 0) return;

    constexpr double kW = 960.0;
    constexpr double kRow = 18.0;
    const double height =
        (static_cast<double>(max_depth) + 1.0) * kRow + 4.0;
    w_.open("svg",
            {{"viewBox", "0 0 " + fmt_svg(kW) + " " + fmt_svg(height)},
             {"width", "100%"},
             {"role", "img"},
             {"preserveAspectRatio", "none"},
             {"style", "max-width:" + fmt_svg(kW) + "px;margin:4px 0 12px"}});
    w_.element("title", {},
               "sampled flame graph \xE2\x80\x94 width is the fraction of "
               "samples through each frame, depth grows downward");

    // Iterative preorder with explicit x offsets; subtrees narrower than
    // half a pixel are pruned (their counts still sit in every ancestor).
    struct Todo {
      std::size_t node;
      std::size_t depth;
      double x;
    };
    const double scale = (kW - 8.0) / static_cast<double>(rooted);
    std::vector<Todo> todo = {{0, 0, 4.0}};
    while (!todo.empty()) {
      const Todo item = todo.back();
      todo.pop_back();
      const TrieNode& node = trie[item.node];
      const double w = static_cast<double>(node.count) * scale;
      if (w < 0.5) continue;
      const double y = static_cast<double>(item.depth) * kRow + 2.0;
      const std::string name =
          item.node == 0 ? std::string("all samples") : node.name;
      w_.open("rect",
              {{"x", fmt_svg(item.x)},
               {"y", fmt_svg(y)},
               {"width", fmt_svg(std::max(1.0, w))},
               {"height", fmt_svg(kRow - 4.0)},
               {"rx", "2"},
               {"fill", item.node == 0 ? std::string("var(--other)")
                                       : fill_of(node.name)},
               {"stroke", "var(--surface)"},
               {"stroke-width", "1"}});
      w_.element("title", {},
                 name + " \xE2\x80\x94 " + fmt_count(node.count) +
                     " sample(s), " +
                     fmt_fixed(100.0 * static_cast<double>(node.count) /
                                   static_cast<double>(rooted),
                               1) +
                     "%");
      w_.close();  // rect
      if (w >= 70.0) {
        w_.element("text",
                   {{"x", fmt_svg(item.x + 4.0)},
                    {"y", fmt_svg(y + kRow - 7.0)},
                    {"fill", "var(--surface)"}},
                   name);
      }
      // Children left-to-right by map order (alphabetical — the layout
      // is deterministic, not time-ordered; samples have no ordering).
      double child_x = item.x;
      for (const auto& [sym, child] : node.kids) {
        todo.push_back({child, item.depth + 1, child_x});
        child_x += static_cast<double>(trie[child].count) * scale;
      }
    }
    w_.close();  // svg
  }

  // ---- data island ------------------------------------------------------

  void data_island() {
    // The machine-readable documents the page was rendered from, as one
    // JSON object.  "</" is escaped to "<\/" (identical after JSON
    // unescaping) so report contents can never terminate the script
    // element early.
    std::string payload = "{\"schema\":\"";
    payload += kDashboardDataSchema;
    payload += "\",\"reports\":[";
    bool first = true;
    for (const LoadedReport& report : data_.reports->reports) {
      if (!first) payload += ',';
      first = false;
      payload += json::render(report.doc);
    }
    payload += "]}";
    std::string safe;
    safe.reserve(payload.size());
    for (std::size_t i = 0; i < payload.size(); ++i) {
      if (payload[i] == '<' && i + 1 < payload.size() &&
          payload[i + 1] == '/') {
        safe += "<\\/";
        ++i;
      } else {
        safe += payload[i];
      }
    }
    w_.open("script", {{"id", "ccmx-dashboard-data"},
                       {"type", "application/json"}});
    w_.raw(safe);
    w_.close();
  }

  const DashboardData& data_;
  HtmlWriter w_;
};

}  // namespace

std::string render_dashboard_html(const DashboardData& data) {
  CCMX_REQUIRE(data.reports != nullptr,
               "render_dashboard_html needs loaded reports");
  Dashboard dashboard(data);
  return dashboard.render();
}

}  // namespace ccmx::obs
