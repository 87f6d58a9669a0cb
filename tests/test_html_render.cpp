// Dashboard renderer: the output must be ONE self-contained HTML file —
// balanced tags, zero external references — whose embedded
// ccmx.dashboard_data/1 island round-trips the run reports through the
// strict JSON parser byte-exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/html_render.hpp"
#include "obs/json_reader.hpp"
#include "obs/profile_reader.hpp"
#include "obs/schemas.hpp"
#include "obs/report.hpp"
#include "obs/trace_reader.hpp"
#include "util/require.hpp"

namespace {

using namespace ccmx;

/// A minimal but schema-valid LoadResult built in memory (no files).
obs::LoadResult make_reports() {
  obs::RunReport report;
  report.name = "exact_cc";
  report.argv = {"bench_exact_cc"};
  report.wall_seconds = 1.5;
  report.cpu_seconds = 1.4;
  obs::BenchmarkRun run;
  run.name = "BM_ExactCcEquality/2";
  run.iterations = 100;
  run.real_time = 12.0;
  run.cpu_time = 11.5;
  run.time_unit = "us";
  report.benchmarks.push_back(run);

  obs::LoadResult out;
  obs::LoadedReport loaded;
  loaded.path = "BENCH_exact_cc.json";
  loaded.name = report.name;
  loaded.doc = obs::json::parse(obs::render_run_report(report));
  if (const obs::json::Value* sha = loaded.doc.find("git_sha")) {
    loaded.git_sha = sha->string;
  }
  loaded.wall_seconds = report.wall_seconds;
  loaded.cpu_seconds = report.cpu_seconds;
  out.reports.push_back(std::move(loaded));
  return out;
}

/// Walks the document and asserts every <tag> has a matching </tag>.
/// Void elements (<meta ...>) and self-closed tags (<rect .../>) are
/// exempt.  Returns the number of elements seen.
std::size_t check_balanced(const std::string& html) {
  std::vector<std::string> stack;
  std::size_t elements = 0;
  std::size_t at = 0;
  while ((at = html.find('<', at)) != std::string::npos) {
    const std::size_t end = html.find('>', at);
    EXPECT_NE(end, std::string::npos) << "unterminated tag at " << at;
    if (end == std::string::npos) break;
    std::string tag = html.substr(at + 1, end - at - 1);
    at = end + 1;
    if (tag.rfind("!DOCTYPE", 0) == 0) continue;
    if (!tag.empty() && tag.back() == '/') continue;  // self-closed
    const bool closing = !tag.empty() && tag.front() == '/';
    if (closing) tag.erase(0, 1);
    const std::size_t space = tag.find_first_of(" \t\n");
    if (space != std::string::npos) tag.resize(space);
    if (tag == "meta" || tag == "br" || tag == "hr") continue;
    if (closing) {
      if (stack.empty() || stack.back() != tag) {
        ADD_FAILURE() << "</" << tag << "> closes <"
                      << (stack.empty() ? "nothing" : stack.back()) << ">";
        return elements;
      }
      stack.pop_back();
    } else {
      stack.push_back(tag);
      ++elements;
      // Raw-text elements: skip to the closer so CSS/JSON content (which
      // may contain '<') is not tokenized as markup.
      if (tag == "style" || tag == "script") {
        const std::string closer = "</" + tag + ">";
        at = html.find(closer, at);
        EXPECT_NE(at, std::string::npos) << "unclosed <" << tag << ">";
        if (at == std::string::npos) return elements;
        at += closer.size();
        stack.pop_back();
      }
    }
  }
  EXPECT_TRUE(stack.empty())
      << "unclosed <" << (stack.empty() ? "" : stack.back()) << ">";
  return elements;
}

/// Extracts the JSON payload of the ccmx-dashboard-data island.
std::string island_of(const std::string& html) {
  const std::string open = "<script id=\"ccmx-dashboard-data\"";
  std::size_t at = html.find(open);
  EXPECT_NE(at, std::string::npos);
  at = html.find('>', at);
  const std::size_t end = html.find("</script>", at);
  EXPECT_NE(end, std::string::npos);
  return html.substr(at + 1, end - at - 1);
}

TEST(HtmlRender, MinimalDashboardIsBalancedAndSelfContained) {
  const obs::LoadResult reports = make_reports();
  obs::DashboardData data;
  data.title = "test dashboard";
  data.provenance = "unit test";
  data.reports = &reports;
  const std::string html = obs::render_dashboard_html(data);

  EXPECT_EQ(html.rfind("<!DOCTYPE html>", 0), 0u);
  EXPECT_GT(check_balanced(html), 20u);
  // Zero external references of any kind.
  for (const char* banned : {"http://", "https://", "src=", "href=",
                             "@import", "url("}) {
    EXPECT_EQ(html.find(banned), std::string::npos) << banned;
  }
  // Absent optional sections render as notes, not as missing markup.
  EXPECT_NE(html.find("No bench diff provided"), std::string::npos);
  EXPECT_NE(html.find("No channel trace provided"), std::string::npos);
}

TEST(HtmlRender, DataIslandRoundTripsThroughStrictParser) {
  const obs::LoadResult reports = make_reports();
  obs::DashboardData data;
  data.reports = &reports;
  const std::string html = obs::render_dashboard_html(data);

  const obs::json::Value island = obs::json::parse(island_of(html));
  ASSERT_NE(island.find("schema"), nullptr);
  EXPECT_EQ(island.find("schema")->string, "ccmx.dashboard_data/1");
  const obs::json::Value* docs = island.find("reports");
  ASSERT_NE(docs, nullptr);
  ASSERT_EQ(docs->array.size(), 1u);
  // The embedded document IS the run report: same schema, same report
  // name, same benchmark rows — and re-rendering it reproduces the
  // original byte-for-byte (render is deterministic and order-keeping).
  const obs::json::Value& doc = docs->array[0];
  EXPECT_EQ(doc.find("schema")->string, std::string(obs::kRunReportSchema));
  EXPECT_EQ(doc.find("name")->string, "exact_cc");
  EXPECT_EQ(obs::json::render(doc),
            obs::json::render(reports.reports[0].doc));
}

TEST(HtmlRender, EscapesScriptTerminatorsInsideTheIsland) {
  obs::RunReport report;
  report.name = "sneaky";
  report.argv = {"</script><b>pwned</b>"};
  obs::LoadResult reports;
  obs::LoadedReport loaded;
  loaded.name = report.name;
  loaded.doc = obs::json::parse(obs::render_run_report(report));
  reports.reports.push_back(std::move(loaded));

  obs::DashboardData data;
  data.reports = &reports;
  const std::string html = obs::render_dashboard_html(data);
  // Exactly one </script> may appear inside the island's span — its own
  // closer; the payload's copy must be escaped to <\/.
  const std::string payload = island_of(html);
  EXPECT_EQ(payload.find("</script>"), std::string::npos);
  EXPECT_NE(payload.find("<\\/script>"), std::string::npos);
  // And the escape is invisible to JSON: the argv round-trips unchanged.
  const obs::json::Value island = obs::json::parse(payload);
  const obs::json::Value& doc = island.find("reports")->array[0];
  EXPECT_EQ(doc.find("argv")->array[0].string, "</script><b>pwned</b>");
}

TEST(HtmlRender, RendersAllSectionsWhenEverythingIsProvided) {
  const obs::LoadResult reports = make_reports();

  obs::TimeseriesResult timeseries;
  timeseries.path = "timeseries.jsonl";
  for (const std::int64_t t_us : {0, 20000, 40000}) {
    obs::TimeseriesRow row;
    row.t_us = t_us;
    row.dt_us = 20000;
    row.rss_bytes = (8 << 20) + t_us;
    timeseries.rows.push_back(row);
  }

  const obs::json::Value diff = obs::json::parse(
      "{\"benchmarks\":[{\"report\":\"exact_cc\","
      "\"benchmark\":\"BM_ExactCcEquality/2\",\"baseline_cpu\":11.0,"
      "\"candidate_cpu\":14.0,\"ratio\":1.27,"
      "\"verdict\":\"regression\"}],"
      "\"counters\":[{\"report\":\"exact_cc\",\"counter\":\"exact_cc.nodes\","
      "\"baseline\":3120,\"candidate\":3121,\"verdict\":\"changed\"},"
      "{\"report\":\"exact_cc\",\"counter\":\"exact_cc.calls\","
      "\"baseline\":5,\"candidate\":5,\"verdict\":\"equal\"}],"
      "\"baseline_dir\":\"a\",\"candidate_dir\":\"b\"}");

  const obs::ChannelTrace trace = obs::parse_channel_trace(
      "{\"ev\":\"span\",\"id\":2,\"parent\":1,\"tid\":1,"
      "\"name\":\"comm.execute\",\"t_us\":5,\"dur_us\":40}\n"
      "{\"ev\":\"send\",\"ch\":1,\"from\":0,\"bits\":8,\"round\":1,"
      "\"msg\":1,\"span\":2,\"tid\":1,\"t_us\":10}\n"
      "{\"ev\":\"send\",\"ch\":1,\"from\":1,\"bits\":1,\"round\":2,"
      "\"msg\":2,\"span\":2,\"tid\":1,\"t_us\":30}\n"
      "{\"ev\":\"span\",\"id\":1,\"parent\":0,\"tid\":1,"
      "\"name\":\"cli.singularity\",\"t_us\":0,\"dur_us\":60}\n");
  const obs::SpanForest forest = obs::build_span_forest(trace.spans);

  obs::DashboardData data;
  data.reports = &reports;
  data.timeseries = &timeseries;
  data.diff = &diff;
  data.trace = &trace;
  data.forest = &forest;
  const std::string html = obs::render_dashboard_html(data);

  check_balanced(html);
  // Every section rendered its content, not its fallback note.
  EXPECT_EQ(html.find("No telemetry series provided"), std::string::npos);
  EXPECT_EQ(html.find("No bench diff provided"), std::string::npos);
  EXPECT_EQ(html.find("No channel trace provided"), std::string::npos);
  EXPECT_NE(html.find("<polyline"), std::string::npos);   // sparkline
  EXPECT_NE(html.find("regression"), std::string::npos);  // verdict chip
  EXPECT_NE(html.find("cli.singularity"), std::string::npos);  // flame
  EXPECT_NE(html.find("bits on the wire"), std::string::npos);
  // Identity never rides on color alone: the regression verdict carries
  // its arrow marker, and the flame view ships a table twin.
  EXPECT_NE(html.find("\xE2\x96\xB2 regression"), std::string::npos);
  // The exact gate lists the changed table counter with both sides, and
  // only that one.
  EXPECT_NE(html.find("exact_cc / exact_cc.nodes: 3120 \xE2\x86\x92 3121 "
                      "(changed)"),
            std::string::npos);
  EXPECT_EQ(html.find("exact_cc / exact_cc.calls"), std::string::npos);
  EXPECT_NE(html.find("Top spans by self time"), std::string::npos);
}

TEST(HtmlRender, ArchPanelRendersModulesAndViolations) {
  const obs::LoadResult reports = make_reports();

  // A hand-written ccmx.arch_report/2 document: two modules, one open
  // layering violation.  The panel must surface all three.
  const obs::json::Value arch = obs::json::parse(
      "{\"schema\":\"ccmx.arch_report/2\",\"files_scanned\":42,"
      "\"include_edges\":17,"
      "\"modules\":[{\"name\":\"util\",\"layer\":0,\"files\":12,"
      "\"fan_out\":0,\"fan_in\":9,\"deps\":[]},"
      "{\"name\":\"linalg\",\"layer\":2,\"files\":8,\"fan_out\":2,"
      "\"fan_in\":5,\"deps\":[\"util\",\"bigint\"]}],"
      "\"findings\":[{\"rule\":\"layering\",\"file\":\"src/util/u.hpp\","
      "\"line\":3,\"message\":\"util (layer 0) must not include linalg "
      "(layer 2)\"}]}");

  obs::DashboardData data;
  data.reports = &reports;
  data.arch = &arch;
  const std::string html = obs::render_dashboard_html(data);

  check_balanced(html);
  EXPECT_NE(html.find("Architecture (include graph)"), std::string::npos);
  EXPECT_EQ(html.find("No architecture report provided"), std::string::npos);
  // Module table rows with their declared dependencies.
  EXPECT_NE(html.find("linalg"), std::string::npos);
  EXPECT_NE(html.find("util, bigint"), std::string::npos);
  // The violation list carries file:line provenance and the rule name.
  EXPECT_NE(html.find("1 open violation(s)"), std::string::npos);
  EXPECT_NE(html.find("src/util/u.hpp:3 [layering]"), std::string::npos);
  EXPECT_EQ(html.find("No open architecture violations"), std::string::npos);

  // Without a report the panel falls back to its note and never claims
  // the repo is clean.
  obs::DashboardData bare;
  bare.reports = &reports;
  const std::string fallback = obs::render_dashboard_html(bare);
  EXPECT_NE(fallback.find("No architecture report provided"),
            std::string::npos);
  EXPECT_EQ(fallback.find("No open architecture violations"),
            std::string::npos);
}

TEST(HtmlRender, ProfileSectionRendersFlameGraphAndLedger) {
  const obs::LoadResult reports = make_reports();

  // An in-memory ccmx.profile/1: two symbolized frames plus one bare
  // address, three samples (stacks stored leaf-first), balanced ledger.
  obs::ProfileData prof;
  prof.hz = 97;
  prof.mechanism = "timer_create";
  const auto add_frame = [&](std::uint64_t id, const char* sym,
                             bool symbolized) {
    obs::ProfileFrame frame;
    frame.id = id;
    frame.pc = 0x1000 + id;
    frame.sym = sym;
    frame.symbolized = symbolized;
    prof.frame_index[id] = prof.frames.size();
    prof.frames.push_back(std::move(frame));
  };
  add_frame(1, "main", true);
  add_frame(2, "ccmx::num::BigInt::mul", true);
  add_frame(3, "0x7f0000001234", false);
  const auto add_sample = [&](std::vector<std::uint64_t> stack) {
    obs::ProfileSample sample;
    sample.tid = 1;
    sample.span = 7;
    sample.stack = std::move(stack);
    prof.samples.push_back(std::move(sample));
  };
  add_sample({2, 1});
  add_sample({2, 1});
  add_sample({3, 1});
  prof.has_ledger = true;
  prof.ledger.captured = 3;
  prof.ledger.written = 3;
  prof.ledger.threads = 1;

  obs::DashboardData data;
  data.reports = &reports;
  data.profile = &prof;
  const std::string html = obs::render_dashboard_html(data);

  check_balanced(html);
  EXPECT_EQ(html.find("No profile provided"), std::string::npos);
  // The flame graph drew rects and the table twin names the hot leaf.
  EXPECT_NE(html.find("Sampled CPU profile (flame graph)"),
            std::string::npos);
  EXPECT_NE(html.find("Top functions by self samples"), std::string::npos);
  EXPECT_NE(html.find("ccmx::num::BigInt::mul"), std::string::npos);
  // A balanced ledger renders without the conservation warning.
  EXPECT_NE(html.find("captured 3"), std::string::npos);
  EXPECT_EQ(html.find("does not balance"), std::string::npos);

  // An unbalanced ledger must surface the warning.
  prof.ledger.written = 2;
  const std::string warned = obs::render_dashboard_html(data);
  EXPECT_NE(warned.find("does not balance"), std::string::npos);

  // Without a profile the section falls back to its note.
  obs::DashboardData bare;
  bare.reports = &reports;
  const std::string fallback = obs::render_dashboard_html(bare);
  EXPECT_NE(fallback.find("No profile provided"), std::string::npos);
}

TEST(HtmlRender, RequiresReports) {
  const obs::DashboardData data;
  EXPECT_THROW((void)obs::render_dashboard_html(data), util::contract_error);
}

}  // namespace
