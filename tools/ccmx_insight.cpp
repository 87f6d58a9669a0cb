// ccmx_insight — the analysis CLI over ccmx's observability artifacts.
//
// Subcommands:
//   diff --baseline DIR --candidate DIR [options]
//       Compare two directories of BENCH_*.json run reports: benchmark
//       cpu_time with noise-aware thresholds, and the table-phase
//       counters exactly.  Prints a markdown summary, optionally writes
//       ccmx.bench_diff/2 JSON (--json) and markdown (--md).  Exit 1
//       when a cpu_time regression survives the thresholds or a table
//       counter differs — the CI perf gate.
//   trace FILE [--report BENCH.json] [--chrome OUT.json]
//       Parse a JSONL channel trace, print per-channel / per-round /
//       per-agent traffic plus the reconstructed span trees, and (with
//       --report) cross-check conservation against the report's comm.*
//       counters.  --chrome converts the whole trace to Chrome
//       trace-event JSON (ccmx.chrome_trace/1) for Perfetto /
//       chrome://tracing.  Exit 1 on conservation mismatch.
//   profile FILE [--top N] [--collapsed OUT] [--trace TRACE.jsonl]
//       Summarize a ccmx.profile/1 JSONL stream written by the sampling
//       CPU profiler (CCMX_PROF_HZ / CCMX_PROF_FILE): the requested and
//       delivered sampling rates, the conservation ledger, the fraction
//       of samples landing in symbolized frames, and the top functions
//       by self/total samples.  --collapsed writes classic folded
//       stacks (flamegraph.pl input); --trace joins the samples against
//       the span forest of the same run for per-span attribution.  A
//       delivered rate below 0.8x the requested one prints a warning.
//       Exit 1 when the ledger is missing or does not balance
//       (captured != written + dropped).
//   html --reports DIR [--diff DIFF.json] [--arch ARCH.json]
//       [--trace FILE] [--profile FILE] [--out FILE] [--title S]
//       Render the observability artifacts into ONE self-contained HTML
//       dashboard (inline SVG/CSS, no scripts, no network) with the
//       run-report JSON embedded as a ccmx.dashboard_data/1 island.
//   fit --law send-half|fingerprint [--seed N] [--max-dev F]
//       Run instrumented protocol sweeps, read the measured bits back
//       out of the JSONL trace they emitted, and fit the paper's laws:
//       send-half bits vs k·n² (Theorem 1.1's upper bound, slope 1) and
//       fingerprint bits vs n²·max{log n, log k} (the probabilistic
//       bound), the latter fitted piecewise over the log n–dominant and
//       log k–dominant regimes.  Exit 1 when |slope - 1| exceeds
//       --max-dev (default 0.1 for send-half, 0.2 per fingerprint
//       regime).
//
// See docs/OBSERVABILITY.md ("Analyzing reports") for the schemas.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "comm/channel.hpp"
#include "comm/partition.hpp"
#include "linalg/convert.hpp"
#include "lint/arch.hpp"
#include "obs/analysis.hpp"
#include "obs/html_render.hpp"
#include "obs/json_reader.hpp"
#include "obs/obs.hpp"
#include "obs/profile_reader.hpp"
#include "obs/trace_reader.hpp"
#include "protocols/fingerprint.hpp"
#include "protocols/send_half.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace ccmx;

int usage() {
  std::cerr <<
      "usage: ccmx_insight "
      "<diff|trace|profile|html|fit> ...\n"
      "  diff --baseline DIR --candidate DIR [--json PATH] [--md PATH]\n"
      "       [--cpu-tol F=0.20] [--rss-tol F=0.30] [--min-iters N=3]\n"
      "       [--allow-missing-baseline]\n"
      "  trace FILE [--report BENCH.json] [--chrome OUT.json]\n"
      "  profile FILE [--top N=15] [--collapsed OUT] [--trace TRACE.jsonl]\n"
      "  html --reports DIR [--diff DIFF.json] [--arch ARCH.json]\n"
      "       [--trace FILE] [--profile FILE] [--out FILE=dashboard.html]\n"
      "       [--title S]\n"
      "  fit --law send-half|fingerprint [--seed N=7] [--max-dev F]\n";
  return 2;
}

/// A bad command line: main prints the message and the usage, exit 2.
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// "--key value" argument reader.  Each subcommand reads every option it
/// takes before acting, then calls done(): an argument nothing read (a
/// misspelled or repeated option, a stray word) is a UsageError, never
/// silently ignored.  A token once read is never matched as a key again,
/// and a value that starts with "--" is another option, so it is refused
/// rather than taken (`--out --title t` is a usage error, not a file
/// named "--title").
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  std::optional<std::string> option(const std::string& key) {
    for (std::size_t i = 0; i + 1 < args_.size(); ++i) {
      if (args_[i] != key || consumed(i)) continue;
      if (args_[i + 1].rfind("--", 0) == 0) {
        throw UsageError(key + " needs a value, got the option \"" +
                         args_[i + 1] + "\"");
      }
      consumed_.push_back(i);
      consumed_.push_back(i + 1);
      return args_[i + 1];
    }
    return std::nullopt;
  }

  bool flag(const std::string& key) {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (args_[i] == key && !consumed(i)) {
        consumed_.push_back(i);
        return true;
      }
    }
    return false;
  }

  /// First argument that is not an option (for `trace FILE`).
  std::optional<std::string> positional() {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (args_[i].rfind("--", 0) == 0) {
        ++i;  // skip the option's value too
        continue;
      }
      consumed_.push_back(i);
      return args_[i];
    }
    return std::nullopt;
  }

  /// A relative tolerance: the whole value must be a finite number
  /// >= 0, written without a sign ("-0" too is refused).  `fallback`
  /// when the option is absent.
  double tolerance(const std::string& key, double fallback) {
    const auto text = option(key);
    if (!text) return fallback;
    const double value = parse<double>(key, *text);
    if (!std::isfinite(value) || std::signbit(value)) {
      throw UsageError(key + " needs a finite number >= 0, got \"" + *text +
                       "\"");
    }
    return value;
  }

  /// A whole-token integer >= `min`; `fallback` when absent.
  template <class Int>
  Int integer(const std::string& key, Int fallback, Int min) {
    const auto text = option(key);
    if (!text) return fallback;
    const Int value = parse<Int>(key, *text);
    if (value < min) {
      throw UsageError(key + " needs an integer >= " + std::to_string(min) +
                       ", got \"" + *text + "\"");
    }
    return value;
  }

  /// Throws UsageError naming the first argument no call above read.
  void done() const {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (!consumed(i)) {
        throw UsageError("unexpected argument \"" + args_[i] + "\"");
      }
    }
  }

 private:
  bool consumed(std::size_t i) const {
    return std::find(consumed_.begin(), consumed_.end(), i) !=
           consumed_.end();
  }

  template <class T>
  static T parse(const std::string& key, const std::string& text) {
    T value{};
    const char* const end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end) {
      throw UsageError(key + " needs a number, got \"" + text + "\"");
    }
    return value;
  }

  std::vector<std::string> args_;
  std::vector<std::size_t> consumed_;
};

bool write_text_file(const std::string& path, const std::string& text) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out.is_open()) return false;
  out << text;
  out.flush();
  return out.good();
}

// ---------------------------------------------------------------- diff

int cmd_diff(Args& args) {
  const auto baseline_dir = args.option("--baseline");
  const auto candidate_dir = args.option("--candidate");
  obs::DiffThresholds thresholds;
  thresholds.cpu_rel_tol = args.tolerance("--cpu-tol", thresholds.cpu_rel_tol);
  thresholds.rss_rel_tol = args.tolerance("--rss-tol", thresholds.rss_rel_tol);
  thresholds.min_iterations = args.integer<std::int64_t>(
      "--min-iters", thresholds.min_iterations, 1);
  const auto json_path = args.option("--json");
  const auto md_path = args.option("--md");
  const bool allow_missing_baseline = args.flag("--allow-missing-baseline");
  args.done();
  if (!baseline_dir || !candidate_dir) return usage();

  const obs::LoadResult baseline = obs::load_report_dir(*baseline_dir);
  const obs::LoadResult candidate = obs::load_report_dir(*candidate_dir);
  if (baseline.reports.empty()) {
    if (allow_missing_baseline) {
      std::cout << "warning: no baseline reports in " << *baseline_dir
                << "; skipping the regression gate\n";
      return 0;
    }
    std::cerr << "error: no valid baseline reports in " << *baseline_dir
              << '\n';
    for (const std::string& p : baseline.problems) {
      std::cerr << "  " << p << '\n';
    }
    return 2;
  }
  if (candidate.reports.empty()) {
    std::cerr << "error: no valid candidate reports in " << *candidate_dir
              << '\n';
    for (const std::string& p : candidate.problems) {
      std::cerr << "  " << p << '\n';
    }
    return 2;
  }

  obs::BenchDiff diff = obs::diff_reports(baseline, candidate, thresholds);
  diff.baseline_dir = *baseline_dir;
  diff.candidate_dir = *candidate_dir;

  const std::string markdown = obs::render_bench_diff_markdown(diff);
  std::cout << markdown;
  if (json_path) {
    if (!write_text_file(*json_path, obs::render_bench_diff_json(diff))) {
      std::cerr << "error: cannot write " << *json_path << '\n';
      return 2;
    }
    std::cout << "bench diff json: " << *json_path << '\n';
  }
  if (md_path && !write_text_file(*md_path, markdown)) {
    std::cerr << "error: cannot write " << *md_path << '\n';
    return 2;
  }
  return diff.has_cpu_regression() || diff.has_counter_mismatch() ? 1 : 0;
}

// --------------------------------------------------------------- trace

int cmd_trace(Args& args) {
  const auto report_path = args.option("--report");
  const auto chrome_path = args.option("--chrome");
  const auto trace_path = args.positional();
  args.done();
  if (!trace_path) return usage();

  // Chunked streaming read, tolerant of the one damage shape a live
  // writer legitimately produces: a torn final line (killed process).
  // Anything else is corruption and still fails the parse — with a
  // diagnostic, not an unhandled exception.  Sends are folded into
  // aggregates as they stream (and forwarded to the Chrome writer
  // below), so memory stays bounded by the span count, not the trace.
  obs::TraceStream stream;

  std::ofstream chrome_out;
  std::optional<obs::ChromeTraceWriter> chrome;
  if (chrome_path) {
    const std::filesystem::path p(*chrome_path);
    if (p.has_parent_path()) {
      std::error_code ec;
      std::filesystem::create_directories(p.parent_path(), ec);
    }
    chrome_out.open(*chrome_path, std::ios::trunc | std::ios::binary);
    if (!chrome_out.is_open()) {
      std::cerr << "error: cannot write " << *chrome_path << '\n';
      return 2;
    }
    chrome.emplace(chrome_out);
    stream.on_span = [&](const obs::SpanEvent& s) { chrome->add_span(s); };
    stream.on_send = [&](const obs::SendEvent& s) { chrome->add_send(s); };
  }

  try {
    stream.consume_file(*trace_path);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
  const obs::TraceReadStats stats = stream.stats();
  const obs::ChannelTrace trace = stream.take_trace();

  std::cout << "trace: " << *trace_path << " — " << trace.send_events
            << " sends across " << trace.channels.size() << " channel(s), "
            << trace.span_events << " span(s), " << trace.other_events
            << " other event(s), " << stats.lines << " line(s)\n";
  if (stats.truncated_tail) {
    std::cout << "warning: final line is not newline-terminated (writer "
                 "killed mid-write?); tolerated as 1 truncation\n";
  }
  std::cout << '\n';
  util::TextTable channels(
      {"channel", "rounds", "messages", "agent0 bits", "agent1 bits",
       "total bits"});
  for (const obs::ChannelStats& ch : trace.channels) {
    channels.row(ch.id, ch.rounds.size(),
                 ch.agents[0].messages + ch.agents[1].messages,
                 ch.agents[0].bits, ch.agents[1].bits, ch.total_bits());
  }
  channels.print(std::cout);

  // Per-round structure of the largest channel (the interesting one for
  // round-communication analyses).
  const auto widest = std::max_element(
      trace.channels.begin(), trace.channels.end(),
      [](const obs::ChannelStats& a, const obs::ChannelStats& b) {
        return a.total_bits() < b.total_bits();
      });
  if (widest != trace.channels.end() && !widest->rounds.empty()) {
    std::cout << "\nper-round traffic of channel " << widest->id << ":\n";
    util::TextTable rounds({"round", "speaker", "messages", "bits"});
    for (const obs::RoundStats& r : widest->rounds) {
      rounds.row(r.round, r.speaker, r.messages, r.bits);
    }
    rounds.print(std::cout);
  }

  if (!trace.spans.empty()) {
    const obs::SpanForest forest = obs::build_span_forest(trace.spans);
    std::cout << "\nspan trees (" << forest.nodes.size() << " span(s) on "
              << forest.threads.size() << " thread(s)):\n";
    for (const obs::ThreadSpans& thread : forest.threads) {
      std::cout << "thread " << thread.tid << ":\n";
      // Depth-first, children in time order — the tree as indentation.
      std::vector<std::size_t> todo(thread.roots.rbegin(),
                                    thread.roots.rend());
      while (!todo.empty()) {
        const std::size_t at = todo.back();
        todo.pop_back();
        const obs::SpanNode& node = forest.nodes[at];
        const obs::SpanEvent& span = forest.spans[node.span];
        std::cout << "  " << std::string(2 * node.depth, ' ') << span.name
                  << "  " << span.dur_us << " us (self " << node.self_us
                  << " us)";
        for (const auto& [key, value] : span.args) {
          std::cout << ' ' << key << '=' << value;
        }
        std::cout << '\n';
        for (auto it = node.children.rbegin(); it != node.children.rend();
             ++it) {
          todo.push_back(*it);
        }
      }
    }
    for (const std::string& p : forest.problems) {
      std::cout << "  warning: " << p << '\n';
    }
  }

  if (chrome) {
    chrome->finish();
    chrome_out.flush();
    if (!chrome_out.good()) {
      std::cerr << "error: short write on " << *chrome_path << '\n';
      return 2;
    }
    std::cout << "\nchrome trace json: " << *chrome_path
              << " (open in Perfetto or chrome://tracing)\n";
  }

  if (report_path) {
    std::ifstream in(*report_path, std::ios::binary);
    if (!in.is_open()) {
      std::cerr << "error: cannot open report " << *report_path << '\n';
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    obs::json::Value doc;
    try {
      doc = obs::json::parse(buffer.str());
    } catch (const std::exception& e) {
      std::cerr << "error: report " << *report_path << ": " << e.what()
                << '\n';
      return 2;
    }
    const std::vector<std::string> mismatches =
        obs::check_trace_against_report(trace, doc);
    if (mismatches.empty()) {
      std::cout << "\nconservation vs " << *report_path
                << ": OK (bits, messages, rounds all match comm.* "
                   "counters)\n";
    } else {
      std::cout << "\nconservation vs " << *report_path << ": FAILED\n";
      for (const std::string& m : mismatches) std::cout << "  " << m << '\n';
      return 1;
    }
  }
  return 0;
}

// ------------------------------------------------------------- profile

int cmd_profile(Args& args) {
  const auto path = args.positional();
  const std::size_t top_n = args.integer<std::size_t>("--top", 15, 1);
  const auto collapsed_path = args.option("--collapsed");
  const auto trace_path = args.option("--trace");
  args.done();
  if (!path) return usage();
  if (std::ifstream probe(*path, std::ios::binary); !probe.is_open()) {
    std::cerr << "error: cannot open " << *path << '\n';
    return 2;
  }
  const obs::ProfileData prof = obs::load_profile(*path);
  for (const std::string& p : prof.problems) {
    std::cerr << "warning: " << p << '\n';
  }

  std::cout << "profile: " << *path << " \xE2\x80\x94 "
            << prof.samples.size() << " sample(s) at "
            << obs::profile_rate_text(prof) << " via "
            << (prof.mechanism.empty() ? std::string("?") : prof.mechanism)
            << '\n';
  // A short rate is the host's timer granularity, not lost samples, so
  // it warns without failing the ledger gate below.
  if (const std::string warning = obs::profile_rate_warning(prof);
      !warning.empty()) {
    std::cout << "warning: " << warning << '\n';
  }
  // The conservation invariant is the gate: a missing or unbalanced
  // ledger means samples went missing unaccounted, and CI should say so.
  int rc = 0;
  if (prof.has_ledger) {
    std::cout << "ledger: captured=" << prof.ledger.captured
              << " written=" << prof.ledger.written
              << " dropped=" << prof.ledger.dropped
              << " truncated=" << prof.ledger.truncated
              << " threads=" << prof.ledger.threads << " \xE2\x80\x94 "
              << (prof.ledger_balances() ? "balances" : "DOES NOT BALANCE")
              << '\n';
    if (!prof.ledger_balances()) rc = 1;
  } else {
    rc = 1;  // load_profile already explained which row is missing
  }
  if (!prof.samples.empty()) {
    std::cout << "symbolized: "
              << util::fmt_double(
                     100.0 * obs::symbolized_sample_fraction(prof), 1)
              << "% of samples hit at least one named frame ("
              << prof.frames.size() << " distinct frame(s))\n";
  }
  if (prof.skipped > 0) {
    std::cout << prof.skipped << " malformed/foreign line(s) skipped\n";
  }

  const std::vector<obs::ProfileHotspot> hotspots =
      obs::profile_hotspots(prof);
  if (!hotspots.empty()) {
    const double total = static_cast<double>(prof.samples.size());
    util::TextTable table({"function", "self", "total", "self %"});
    for (std::size_t i = 0; i < hotspots.size() && i < top_n; ++i) {
      const obs::ProfileHotspot& spot = hotspots[i];
      table.row(spot.sym, spot.self, spot.total,
                util::fmt_double(
                    100.0 * static_cast<double>(spot.self) / total, 1) +
                    "%");
    }
    table.print(std::cout);
    if (hotspots.size() > top_n) {
      std::cout << "(" << hotspots.size() - top_n
                << " further function(s) omitted; --top N shows more)\n";
    }
  }

  if (collapsed_path) {
    // Classic folded stacks, one "frame;frame;frame count" line each —
    // flamegraph.pl and speedscope both eat this directly.
    std::ostringstream folded;
    std::size_t lines = 0;
    for (const auto& [stack, count] : obs::collapsed_stacks(prof)) {
      folded << stack << ' ' << count << '\n';
      ++lines;
    }
    if (!write_text_file(*collapsed_path, folded.str())) {
      std::cerr << "error: cannot write " << *collapsed_path << '\n';
      return 2;
    }
    std::cout << "collapsed stacks: " << lines << " folded line(s) -> "
              << *collapsed_path << '\n';
  }

  if (trace_path) {
    // Join sample span ids against the span forest of the same run: the
    // instrumented view (span wall time) and the statistical view
    // (sample counts) land in one table.
    obs::TraceStream stream;
    try {
      stream.consume_file(*trace_path);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << '\n';
      return 2;
    }
    const obs::ChannelTrace trace = stream.take_trace();
    const obs::SpanForest forest = obs::build_span_forest(trace.spans);
    std::map<std::uint64_t, const obs::SpanEvent*> span_by_id;
    for (const obs::SpanEvent& span : forest.spans) {
      span_by_id[span.id] = &span;
    }
    const double total =
        std::max(1.0, static_cast<double>(prof.samples.size()));
    std::cout << "samples by span (joined with " << *trace_path << "):\n";
    util::TextTable table({"span", "name", "samples", "share", "span dur"});
    for (const auto& [span_id, count] : obs::samples_by_span(prof)) {
      const auto it = span_by_id.find(span_id);
      const std::string share =
          util::fmt_double(100.0 * static_cast<double>(count) / total, 1) +
          "%";
      if (span_id == 0) {
        table.row("-", "(outside any span)", count, share, "-");
      } else if (it == span_by_id.end()) {
        table.row(span_id, "(not in trace)", count, share, "-");
      } else {
        table.row(span_id, it->second->name, count, share,
                  std::to_string(it->second->dur_us) + " us");
      }
    }
    table.print(std::cout);
  }
  return rc;
}

// ---------------------------------------------------------------- html

/// Parses PATH as JSON and checks it against ccmx.arch_report/2;
/// prints the problems and returns nullopt when it does not conform.
std::optional<obs::json::Value> load_arch_report(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    std::cerr << "error: cannot open " << path << '\n';
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  obs::json::Value doc;
  try {
    doc = obs::json::parse(buffer.str());
  } catch (const std::exception& e) {
    std::cerr << "error: " << path << ": " << e.what() << '\n';
    return std::nullopt;
  }
  const std::vector<std::string> problems = lint::validate_arch_report(doc);
  if (!problems.empty()) {
    std::cerr << "error: " << path << " is not a valid arch report\n";
    for (const std::string& p : problems) std::cerr << "  " << p << '\n';
    return std::nullopt;
  }
  return doc;
}

int cmd_html(Args& args) {
  const auto reports_dir = args.option("--reports");
  const std::string out = args.option("--out").value_or("dashboard.html");
  const std::string title =
      args.option("--title").value_or("ccmx observability dashboard");
  const auto diff_path = args.option("--diff");
  const auto arch_path = args.option("--arch");
  const auto trace_path = args.option("--trace");
  const auto profile_path = args.option("--profile");
  args.done();
  if (!reports_dir) return usage();

  const obs::LoadResult reports = obs::load_report_dir(*reports_dir);
  for (const std::string& p : reports.problems) {
    std::cerr << "warning: " << p << '\n';
  }

  obs::DashboardData data;
  data.reports = &reports;
  data.title = title;
  if (!reports.reports.empty()) {
    const obs::LoadedReport& first = reports.reports.front();
    data.provenance = "git " + first.git_sha.substr(0, 12) + ", " +
                      first.build_type + " build, " +
                      std::to_string(reports.reports.size()) +
                      " run report(s) from " + *reports_dir;
  } else {
    data.provenance = "no run reports in " + *reports_dir;
  }

  // Optional sections — each loads independently; a missing artifact is
  // a note on the page, not a failure.
  obs::json::Value diff_doc;
  if (diff_path) {
    std::ifstream in(*diff_path, std::ios::binary);
    if (!in.is_open()) {
      std::cerr << "error: cannot open " << *diff_path << '\n';
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    try {
      diff_doc = obs::json::parse(buffer.str());
    } catch (const std::exception& e) {
      std::cerr << "error: " << *diff_path << ": " << e.what() << '\n';
      return 2;
    }
    const std::vector<std::string> problems =
        obs::validate_bench_diff(diff_doc);
    if (!problems.empty()) {
      std::cerr << "error: " << *diff_path
                << " is not a valid bench diff\n";
      for (const std::string& p : problems) std::cerr << "  " << p << '\n';
      return 2;
    }
    data.diff = &diff_doc;
  }

  std::optional<obs::json::Value> arch_doc;
  if (arch_path) {
    arch_doc = load_arch_report(*arch_path);
    if (!arch_doc) return 2;
    data.arch = &*arch_doc;
  }

  obs::ChannelTrace trace;
  obs::SpanForest forest;
  obs::TraceReadStats trace_stats;
  if (trace_path) {
    // Same chunked read as `trace`: a dashboard over a torn trace
    // should render the damage, not die on it.
    obs::TraceStream stream;
    try {
      stream.consume_file(*trace_path);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << '\n';
      return 2;
    }
    trace_stats = stream.stats();
    trace = stream.take_trace();
    forest = obs::build_span_forest(trace.spans);
    data.trace = &trace;
    data.forest = &forest;
    data.trace_stats = &trace_stats;
  }

  obs::ProfileData profile;
  if (profile_path) {
    // Tolerant too: a profile with problems renders them as warnings on
    // the page; only the section's absence needs the note.
    profile = obs::load_profile(*profile_path);
    for (const std::string& p : profile.problems) {
      std::cerr << "warning: " << p << '\n';
    }
    data.profile = &profile;
  }

  const std::string html = obs::render_dashboard_html(data);
  if (!write_text_file(out, html)) {
    std::cerr << "error: cannot write " << out << '\n';
    return 2;
  }
  std::cout << "dashboard: " << out << " (" << html.size()
            << " bytes, self-contained)\n";
  return 0;
}

// ----------------------------------------------------------------- fit

la::IntMatrix random_entries(std::size_t n, unsigned k,
                             util::Xoshiro256& rng) {
  return la::IntMatrix::generate(n, n, [&](std::size_t, std::size_t) {
    return num::BigInt(
        static_cast<std::int64_t>(rng.below(std::uint64_t{1} << k)));
  });
}

struct FitPoint {
  std::size_t n = 0;
  unsigned k = 0;
  double x = 0.0;              // the law's predictor
  std::size_t outcome_bits = 0;  // as reported by comm::execute
};

/// Routes the process's JSONL event stream to a private temp file so the
/// sweep's sends can be read back through the trace reader.  Must run
/// before the first obs::emit_event in the process (the sink path is
/// probed lazily, once).
std::string arm_private_trace_file() {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("ccmx_insight_fit_" + std::to_string(::getpid()) + ".jsonl");
  std::filesystem::remove(path);
  ::setenv("CCMX_TRACE_FILE", path.string().c_str(), /*overwrite=*/1);
  obs::set_enabled(true);
  return path.string();
}

/// Reads the sweep's trace back, one channel per protocol execution in
/// run order, and deletes the private file.  The sweep's last events sit
/// in the threads' trace buffers until flushed.
obs::ChannelTrace take_fit_trace(const std::string& trace_path) {
  obs::flush_trace_sink();
  obs::ChannelTrace trace = obs::read_channel_trace_file(trace_path);
  std::filesystem::remove(trace_path);
  return trace;
}

int fit_report(const std::string& law, const std::vector<FitPoint>& points,
               const std::string& trace_path, const std::string& x_label,
               double max_dev) {
  // Read the measured bits back out of the JSONL trace.
  const obs::ChannelTrace trace = take_fit_trace(trace_path);
  if (trace.channels.size() != points.size()) {
    std::cerr << "error: trace holds " << trace.channels.size()
              << " channels for " << points.size() << " runs\n";
    return 2;
  }

  util::TextTable table({"n", "k", x_label, "trace bits", "rounds"});
  std::vector<std::pair<double, double>> xy;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const obs::ChannelStats& ch = trace.channels[i];
    if (ch.total_bits() != points[i].outcome_bits) {
      std::cerr << "error: run " << i << " trace bits " << ch.total_bits()
                << " != protocol outcome " << points[i].outcome_bits << '\n';
      return 2;
    }
    table.row(points[i].n, points[i].k, points[i].x, ch.total_bits(),
              ch.rounds.size());
    xy.emplace_back(points[i].x, static_cast<double>(ch.total_bits()));
  }
  table.print(std::cout);

  const obs::PowerLawFit fit = obs::fit_power_law(xy);
  std::cout << "\nlog2(bits) vs log2(" << x_label << "): slope "
            << util::fmt_double(fit.slope, 4) << ", intercept 2^"
            << util::fmt_double(fit.log2_intercept, 3) << ", R^2 "
            << util::fmt_double(fit.r2, 4) << " over " << fit.points
            << " points\n";
  std::cout << "paper's law predicts slope 1 (" << law << " is linear in "
            << x_label << "); deviation "
            << util::fmt_double(std::abs(fit.slope - 1.0), 4) << "\n";
  if (max_dev > 0.0 && std::abs(fit.slope - 1.0) > max_dev) {
    std::cerr << "FAIL: slope deviates from 1 by more than "
              << util::fmt_double(max_dev, 3) << '\n';
    return 1;
  }
  return 0;
}

int cmd_fit(Args& args) {
  const std::string law = args.option("--law").value_or("send-half");
  const auto seed = args.integer<std::uint64_t>("--seed", 7, 0);
  // 0 turns the slope gate off; each fingerprint regime gates at 0.2
  // by default (see E2/E11).
  const double max_dev =
      args.tolerance("--max-dev", law == "fingerprint" ? 0.2 : 0.1);
  args.done();
  util::Xoshiro256 rng(seed);

  if (law == "send-half") {
    const std::string trace_path = arm_private_trace_file();
    // E1's regime: even partitions of 2m x 2m matrices with k-bit
    // entries; the send-half upper bound is k*n^2/2 + 1 bits, linear in
    // k*n^2.
    std::vector<FitPoint> points;
    for (const std::size_t n : {2u, 4u, 6u, 8u}) {
      for (const unsigned k : {1u, 2u, 4u, 8u}) {
        const comm::MatrixBitLayout layout(n, n, k);
        const comm::Partition pi = comm::Partition::pi0(layout);
        const comm::BitVec input = layout.encode(random_entries(n, k, rng));
        const auto outcome = comm::execute(
            proto::make_send_half_singularity(layout), input, pi);
        FitPoint p;
        p.n = n;
        p.k = k;
        p.x = static_cast<double>(k) * static_cast<double>(n * n);
        p.outcome_bits = outcome.bits;
        points.push_back(p);
      }
    }
    return fit_report(law, points, trace_path, "k*n^2", max_dev);
  }

  if (law == "fingerprint") {
    const std::string trace_path = arm_private_trace_file();
    // E2/E11's regime: fingerprint bits grow with n^2 * max{log n, log k}
    // (the prime length tracks the max).  The max makes one global fit
    // meaningless — which term dominates flips across the grid — so fit
    // PIECEWISE: points with log n >= log k against n^2*log n, the rest
    // against n^2*log k, each regime linear in its own predictor.
    std::vector<FitPoint> all;
    for (const std::size_t n : {4u, 8u, 16u}) {
      for (const unsigned k : {2u, 8u, 32u}) {
        const comm::MatrixBitLayout layout(n, n, k);
        const comm::Partition pi = comm::Partition::pi0(layout);
        const comm::BitVec input = layout.encode(random_entries(n, k, rng));
        const unsigned pb = proto::recommend_prime_bits(n, k, 0.01);
        const proto::FingerprintProtocol fp(
            layout, proto::FingerprintTask::kSingularity, pb, 1, seed);
        const auto outcome = comm::execute(fp, input, pi);
        FitPoint p;
        p.n = n;
        p.k = k;
        p.x = static_cast<double>(n * n) *
              std::max(std::log2(static_cast<double>(n)),
                       std::log2(static_cast<double>(k)));
        p.outcome_bits = outcome.bits;
        all.push_back(p);
      }
    }
    // One conservation pass over the whole sweep (the trace holds every
    // run in order), then one fit per regime; the gate requires both.
    std::vector<FitPoint> n_dominant;
    std::vector<FitPoint> k_dominant;
    for (const FitPoint& p : all) {
      (std::log2(static_cast<double>(p.n)) >=
               std::log2(static_cast<double>(p.k))
           ? n_dominant
           : k_dominant)
          .push_back(p);
    }
    const obs::ChannelTrace trace = take_fit_trace(trace_path);
    if (trace.channels.size() != all.size()) {
      std::cerr << "error: trace holds " << trace.channels.size()
                << " channels for " << all.size() << " runs\n";
      return 2;
    }
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (trace.channels[i].total_bits() != all[i].outcome_bits) {
        std::cerr << "error: run " << i << " trace bits "
                  << trace.channels[i].total_bits()
                  << " != protocol outcome " << all[i].outcome_bits << '\n';
        return 2;
      }
    }
    int rc = 0;
    const struct {
      const char* label;
      const std::vector<FitPoint>* points;
    } regimes[] = {{"n^2*log n (log n dominant)", &n_dominant},
                   {"n^2*log k (log k dominant)", &k_dominant}};
    for (const auto& regime : regimes) {
      util::TextTable table({"n", "k", regime.label, "bits"});
      std::vector<std::pair<double, double>> xy;
      for (const FitPoint& p : *regime.points) {
        table.row(p.n, p.k, p.x, p.outcome_bits);
        xy.emplace_back(p.x, static_cast<double>(p.outcome_bits));
      }
      std::cout << '\n';
      table.print(std::cout);
      const obs::PowerLawFit fit = obs::fit_power_law(xy);
      const double dev = std::abs(fit.slope - 1.0);
      std::cout << "log2(bits) vs log2(" << regime.label << "): slope "
                << util::fmt_double(fit.slope, 4) << ", R^2 "
                << util::fmt_double(fit.r2, 4) << " over " << fit.points
                << " points; deviation from 1: "
                << util::fmt_double(dev, 4) << '\n';
      if (max_dev > 0.0 && dev > max_dev) {
        std::cerr << "FAIL: " << regime.label
                  << " slope deviates from 1 by more than "
                  << util::fmt_double(max_dev, 3) << '\n';
        rc = 1;
      }
    }
    return rc;
  }

  std::cerr << "error: unknown law \"" << law
            << "\" (expected send-half or fingerprint)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  Args args(argc, argv, 2);
  try {
    if (cmd == "diff") return cmd_diff(args);
    if (cmd == "trace") return cmd_trace(args);
    if (cmd == "profile") return cmd_profile(args);
    if (cmd == "html") return cmd_html(args);
    if (cmd == "fit") return cmd_fit(args);
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
  return usage();
}
