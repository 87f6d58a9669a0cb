#include "obs/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/schemas.hpp"
#include "util/require.hpp"

namespace ccmx::obs {

namespace fs = std::filesystem;

namespace {

std::string read_whole_file(const std::string& path,
                            std::vector<std::string>& problems) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    problems.push_back(path + ": cannot open");
    return {};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

double number_or(const json::Value& doc, std::string_view key,
                 double fallback) {
  const json::Value* v = doc.find(key);
  return v != nullptr && v->is_number() ? v->number : fallback;
}

std::string string_or(const json::Value& doc, std::string_view key,
                      std::string_view fallback) {
  const json::Value* v = doc.find(key);
  return v != nullptr && v->is_string() ? v->string : std::string(fallback);
}

bool bool_or(const json::Value& doc, std::string_view key) {
  const json::Value* v = doc.find(key);
  return v != nullptr && v->is_bool() && v->boolean;
}

/// candidate/baseline classified against a symmetric relative tolerance
/// (cpu time and RSS, where lower is better).
Verdict classify(double baseline, double candidate, double rel_tol) {
  if (baseline <= 0.0) {
    // Degenerate baseline (zero time): any nonzero candidate is a change
    // we cannot express as a ratio; flag only a real appearance.
    return candidate <= 0.0 ? Verdict::kWithinNoise : Verdict::kRegression;
  }
  const double ratio = candidate / baseline;
  if (ratio > 1.0 + rel_tol) return Verdict::kRegression;
  if (ratio < 1.0 - rel_tol) return Verdict::kImprovement;
  return Verdict::kWithinNoise;
}

double safe_ratio(double baseline, double candidate) {
  return baseline > 0.0 ? candidate / baseline : 0.0;
}

/// Pulls "table_counters" into an ordered map (empty when the block or
/// the whole report is absent).
std::map<std::string, double> table_counter_map(const LoadedReport* report) {
  std::map<std::string, double> out;
  if (report == nullptr) return out;
  const json::Value* counters = report->doc.find("table_counters");
  if (counters == nullptr || !counters->is_object()) return out;
  for (const auto& [name, value] : counters->object) {
    if (value.is_number()) out[name] = value.number;
  }
  return out;
}

struct BenchRow {
  double cpu_time = 0.0;
  std::int64_t iterations = 0;
  std::string time_unit;
};

std::map<std::string, BenchRow> benchmark_map(const json::Value& doc) {
  std::map<std::string, BenchRow> out;
  const json::Value* benches = doc.find("benchmarks");
  if (benches == nullptr || !benches->is_array()) return out;
  for (const json::Value& run : benches->array) {
    if (!run.is_object()) continue;
    const json::Value* name = run.find("name");
    if (name == nullptr || !name->is_string()) continue;
    // Errored runs carry no meaningful timing; exclude them from the
    // timing diff (they are caught by bench_main's nonzero exit).
    if (const json::Value* err = run.find("error");
        err != nullptr && err->is_bool() && err->boolean) {
      continue;
    }
    BenchRow row;
    row.cpu_time = number_or(run, "cpu_time", 0.0);
    row.iterations =
        static_cast<std::int64_t>(number_or(run, "iterations", 0.0));
    row.time_unit = string_or(run, "time_unit", "ns");
    out[name->string] = row;
  }
  return out;
}

void write_verdict_counts(json::Writer& w, const BenchDiff& diff) {
  w.key("summary").begin_object();
  w.key("regressions")
      .value(static_cast<std::uint64_t>(diff.count(Verdict::kRegression)));
  w.key("improvements")
      .value(static_cast<std::uint64_t>(diff.count(Verdict::kImprovement)));
  w.key("within_noise")
      .value(static_cast<std::uint64_t>(diff.count(Verdict::kWithinNoise)));
  w.key("low_iterations")
      .value(static_cast<std::uint64_t>(diff.count(Verdict::kLowIterations)));
  w.key("only_baseline")
      .value(static_cast<std::uint64_t>(diff.count(Verdict::kOnlyBaseline)));
  w.key("only_candidate")
      .value(static_cast<std::uint64_t>(diff.count(Verdict::kOnlyCandidate)));
  w.key("cpu_regression").value(diff.has_cpu_regression());
  w.key("counter_mismatch").value(diff.has_counter_mismatch());
  w.end_object();
}

std::string fmt_ratio(double ratio) {
  if (ratio <= 0.0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", ratio);
  return buf;
}

std::string fmt_num(double v) {
  char buf[48];
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.4g", v);
  }
  return buf;
}

void check_member(const json::Value& doc, std::string_view key,
                  json::Value::Kind kind, std::vector<std::string>& problems) {
  const json::Value* v = doc.find(key);
  if (v == nullptr) {
    problems.push_back("missing required member \"" + std::string(key) + '"');
    return;
  }
  if (v->kind != kind) {
    problems.push_back("member \"" + std::string(key) + "\" has wrong type");
  }
}

}  // namespace

std::string_view verdict_name(Verdict v) noexcept {
  switch (v) {
    case Verdict::kWithinNoise: return "within_noise";
    case Verdict::kImprovement: return "improvement";
    case Verdict::kRegression: return "regression";
    case Verdict::kLowIterations: return "low_iterations";
    case Verdict::kOnlyBaseline: return "only_baseline";
    case Verdict::kOnlyCandidate: return "only_candidate";
    case Verdict::kEqual: return "equal";
    case Verdict::kChanged: return "changed";
  }
  return "unknown";
}

std::vector<std::string> validate_run_report(const json::Value& doc) {
  std::vector<std::string> problems;
  if (!doc.is_object()) {
    problems.emplace_back("document is not an object");
    return problems;
  }
  using Kind = json::Value::Kind;
  check_member(doc, "schema", Kind::kString, problems);
  if (const json::Value* schema = doc.find("schema");
      schema != nullptr && schema->is_string() &&
      schema->string != kRunReportSchema) {
    problems.push_back("unrecognized schema \"" + schema->string + '"');
  }
  check_member(doc, "name", Kind::kString, problems);
  if (const json::Value* name = doc.find("name");
      name != nullptr && name->is_string() && name->string.empty()) {
    problems.emplace_back("\"name\" must be non-empty");
  }
  check_member(doc, "git_sha", Kind::kString, problems);
  check_member(doc, "build_type", Kind::kString, problems);
  check_member(doc, "unix_time", Kind::kNumber, problems);
  check_member(doc, "hardware_parallelism", Kind::kNumber, problems);
  if (const json::Value* hw = doc.find("hardware_parallelism");
      hw != nullptr && hw->is_number() && hw->number < 1.0) {
    problems.emplace_back("\"hardware_parallelism\" must be >= 1");
  }
  check_member(doc, "trace_enabled", Kind::kBool, problems);
  check_member(doc, "wall_seconds", Kind::kNumber, problems);
  check_member(doc, "cpu_seconds", Kind::kNumber, problems);
  // Optional (reports written before the field existed stay valid), but
  // typed and non-negative when present.
  if (const json::Value* rss = doc.find("max_rss_bytes"); rss != nullptr) {
    if (!rss->is_number()) {
      problems.emplace_back("member \"max_rss_bytes\" has wrong type");
    } else if (rss->number < 0.0) {
      problems.emplace_back("\"max_rss_bytes\" must be >= 0");
    }
  }
  // Optional for the same reason: reports predating the async trace
  // pipeline carry no truncation flag.
  if (const json::Value* trunc = doc.find("trace_truncated");
      trunc != nullptr && !trunc->is_bool()) {
    problems.emplace_back("member \"trace_truncated\" has wrong type");
  }
  // Optional rusage extras (reports predating them stay valid); typed
  // and non-negative when present.
  for (const char* field : {"minor_faults", "major_faults",
                            "voluntary_ctx_switches",
                            "involuntary_ctx_switches"}) {
    if (const json::Value* v = doc.find(field); v != nullptr) {
      if (!v->is_number()) {
        problems.push_back("member \"" + std::string(field) +
                           "\" has wrong type");
      } else if (v->number < 0.0) {
        problems.push_back("\"" + std::string(field) + "\" must be >= 0");
      }
    }
  }
  // Optional hw block; when present it must carry a bool "available",
  // and an available block must carry the counter numbers.
  if (const json::Value* hw = doc.find("hw"); hw != nullptr) {
    if (!hw->is_object()) {
      problems.emplace_back("member \"hw\" has wrong type");
    } else {
      const json::Value* avail = hw->find("available");
      if (avail == nullptr || !avail->is_bool()) {
        problems.emplace_back("\"hw\" missing bool \"available\"");
      } else if (avail->boolean) {
        for (const char* field :
             {"instructions", "cycles", "ipc", "cache_references",
              "cache_misses", "cache_miss_rate", "branches", "branch_misses",
              "task_clock_ns"}) {
          const json::Value* f = hw->find(field);
          if (f == nullptr || !f->is_number()) {
            problems.push_back("\"hw\" missing numeric \"" +
                               std::string(field) + '"');
          }
        }
      }
    }
  }
  check_member(doc, "argv", Kind::kArray, problems);
  check_member(doc, "attributes", Kind::kObject, problems);
  if (const json::Value* attrs = doc.find("attributes");
      attrs != nullptr && attrs->is_object()) {
    for (const auto& [key, value] : attrs->object) {
      if (!value.is_string()) {
        problems.push_back("attribute \"" + key + "\" is not a string");
      }
    }
  }
  check_member(doc, "counters", Kind::kObject, problems);
  // "table_counters" is optional: only bench binaries have a table phase.
  if (const json::Value* table = doc.find("table_counters");
      table != nullptr && !table->is_object()) {
    problems.emplace_back("member \"table_counters\" has wrong type");
  }
  for (const char* block : {"counters", "table_counters"}) {
    const json::Value* counters = doc.find(block);
    if (counters == nullptr || !counters->is_object()) continue;
    for (const auto& [key, value] : counters->object) {
      if (!value.is_number()) {
        problems.push_back(std::string(block) + " \"" + key +
                           "\" is not a number");
      }
    }
  }
  check_member(doc, "histograms", Kind::kObject, problems);
  if (const json::Value* hists = doc.find("histograms");
      hists != nullptr && hists->is_object()) {
    for (const auto& [key, value] : hists->object) {
      if (!value.is_object()) {
        problems.push_back("histogram \"" + key + "\" is not an object");
        continue;
      }
      for (const char* field :
           {"count", "min", "max", "mean", "p50", "p90", "p99"}) {
        const json::Value* f = value.find(field);
        if (f == nullptr || !f->is_number()) {
          problems.push_back("histogram \"" + key + "\" missing numeric \"" +
                             field + '"');
        }
      }
    }
  }
  check_member(doc, "benchmarks", Kind::kArray, problems);
  if (const json::Value* benches = doc.find("benchmarks");
      benches != nullptr && benches->is_array()) {
    for (std::size_t i = 0; i < benches->array.size(); ++i) {
      const json::Value& run = benches->array[i];
      const std::string where = "benchmarks[" + std::to_string(i) + ']';
      if (!run.is_object()) {
        problems.push_back(where + " is not an object");
        continue;
      }
      check_member(run, "name", Kind::kString, problems);
      check_member(run, "iterations", Kind::kNumber, problems);
      check_member(run, "real_time", Kind::kNumber, problems);
      check_member(run, "cpu_time", Kind::kNumber, problems);
      check_member(run, "time_unit", Kind::kString, problems);
      if (const json::Value* err = run.find("error"); err != nullptr) {
        if (!err->is_bool()) {
          problems.push_back(where + " member \"error\" has wrong type");
        } else if (err->boolean) {
          check_member(run, "error_message", Kind::kString, problems);
        }
      }
    }
  }
  return problems;
}

std::vector<std::string> load_report_file(const std::string& path,
                                          LoadedReport& out) {
  std::vector<std::string> problems;
  const std::string text = read_whole_file(path, problems);
  if (!problems.empty()) return problems;
  json::Value doc;
  try {
    doc = json::parse(text);
  } catch (const util::contract_error& e) {
    problems.push_back(path + ": " + e.what());
    return problems;
  }
  for (const std::string& problem : validate_run_report(doc)) {
    problems.push_back(path + ": " + problem);
  }
  if (!problems.empty()) return problems;
  out.path = path;
  out.name = string_or(doc, "name", "");
  out.git_sha = string_or(doc, "git_sha", "unknown");
  out.build_type = string_or(doc, "build_type", "unknown");
  out.wall_seconds = number_or(doc, "wall_seconds", 0.0);
  out.cpu_seconds = number_or(doc, "cpu_seconds", 0.0);
  out.max_rss_bytes =
      static_cast<std::int64_t>(number_or(doc, "max_rss_bytes", 0.0));
  out.doc = std::move(doc);
  return problems;
}

LoadResult load_report_dir(const std::string& dir) {
  LoadResult result;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return result;
  std::vector<std::string> paths;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string file = entry.path().filename().string();
    if (file.rfind("BENCH_", 0) == 0 && file.size() > 5 &&
        file.substr(file.size() - 5) == ".json") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const std::string& path : paths) {
    LoadedReport report;
    std::vector<std::string> problems = load_report_file(path, report);
    if (problems.empty()) {
      result.reports.push_back(std::move(report));
    } else {
      result.problems.insert(result.problems.end(), problems.begin(),
                             problems.end());
    }
  }
  std::sort(result.reports.begin(), result.reports.end(),
            [](const LoadedReport& a, const LoadedReport& b) {
              return a.name < b.name;
            });
  return result;
}

std::size_t BenchDiff::count(Verdict v) const noexcept {
  std::size_t n = 0;
  for (const BenchmarkDelta& d : benchmarks) n += d.verdict == v;
  for (const CounterDelta& d : counters) n += d.verdict == v;
  for (const RssDelta& d : rss) n += d.verdict == v;
  return n;
}

bool BenchDiff::has_cpu_regression() const noexcept {
  return std::any_of(benchmarks.begin(), benchmarks.end(),
                     [](const BenchmarkDelta& d) {
                       return d.verdict == Verdict::kRegression;
                     });
}

bool BenchDiff::has_counter_mismatch() const noexcept {
  return std::any_of(counters.begin(), counters.end(),
                     [](const CounterDelta& d) {
                       return d.verdict != Verdict::kEqual;
                     });
}

BenchDiff diff_reports(const LoadResult& baseline, const LoadResult& candidate,
                       const DiffThresholds& thresholds) {
  BenchDiff diff;
  diff.thresholds = thresholds;
  diff.problems = baseline.problems;
  diff.problems.insert(diff.problems.end(), candidate.problems.begin(),
                       candidate.problems.end());

  std::map<std::string, const LoadedReport*> base_by_name;
  std::map<std::string, const LoadedReport*> cand_by_name;
  for (const LoadedReport& r : baseline.reports) base_by_name[r.name] = &r;
  for (const LoadedReport& r : candidate.reports) cand_by_name[r.name] = &r;

  // Benchmarks that exist only on one side (whole report or single row).
  const auto emit_one_sided = [&](const std::string& report,
                                  const std::map<std::string, BenchRow>& rows,
                                  Verdict verdict) {
    for (const auto& [bench, row] : rows) {
      BenchmarkDelta d;
      d.report = report;
      d.benchmark = bench;
      d.time_unit = row.time_unit;
      if (verdict == Verdict::kOnlyBaseline) {
        d.baseline_cpu = row.cpu_time;
        d.baseline_iterations = row.iterations;
      } else {
        d.candidate_cpu = row.cpu_time;
        d.candidate_iterations = row.iterations;
      }
      d.verdict = verdict;
      diff.benchmarks.push_back(std::move(d));
    }
  };

  // Table counters must match exactly: a change in either direction,
  // or a counter on one side only, is a mismatch.
  const auto compare_counters = [&](const std::string& report,
                                    const LoadedReport* base,
                                    const LoadedReport* cand) {
    const std::map<std::string, double> base_counters =
        table_counter_map(base);
    const std::map<std::string, double> cand_counters =
        table_counter_map(cand);
    for (const auto& [counter, value] : base_counters) {
      CounterDelta d;
      d.report = report;
      d.counter = counter;
      d.baseline = value;
      const auto it = cand_counters.find(counter);
      if (it == cand_counters.end()) {
        d.verdict = Verdict::kOnlyBaseline;
      } else {
        d.candidate = it->second;
        d.verdict = value == d.candidate ? Verdict::kEqual : Verdict::kChanged;
      }
      diff.counters.push_back(std::move(d));
    }
    for (const auto& [counter, value] : cand_counters) {
      if (base_counters.count(counter) != 0) continue;
      CounterDelta d;
      d.report = report;
      d.counter = counter;
      d.candidate = value;
      d.verdict = Verdict::kOnlyCandidate;
      diff.counters.push_back(std::move(d));
    }
  };

  for (const auto& [name, base] : base_by_name) {
    const auto cand_it = cand_by_name.find(name);
    if (cand_it == cand_by_name.end()) {
      emit_one_sided(name, benchmark_map(base->doc), Verdict::kOnlyBaseline);
      compare_counters(name, base, nullptr);
      continue;
    }
    const LoadedReport* cand = cand_it->second;

    const std::map<std::string, BenchRow> base_rows = benchmark_map(base->doc);
    const std::map<std::string, BenchRow> cand_rows = benchmark_map(cand->doc);
    for (const auto& [bench, brow] : base_rows) {
      BenchmarkDelta d;
      d.report = name;
      d.benchmark = bench;
      d.time_unit = brow.time_unit;
      d.baseline_cpu = brow.cpu_time;
      d.baseline_iterations = brow.iterations;
      const auto crow_it = cand_rows.find(bench);
      if (crow_it == cand_rows.end()) {
        d.verdict = Verdict::kOnlyBaseline;
      } else {
        const BenchRow& crow = crow_it->second;
        d.candidate_cpu = crow.cpu_time;
        d.candidate_iterations = crow.iterations;
        d.ratio = safe_ratio(brow.cpu_time, crow.cpu_time);
        if (crow.time_unit != brow.time_unit) {
          diff.problems.push_back(name + "/" + bench + ": time_unit changed " +
                                  brow.time_unit + " -> " + crow.time_unit +
                                  "; timing not compared");
          d.verdict = Verdict::kLowIterations;
        } else if (brow.iterations < thresholds.min_iterations ||
                   crow.iterations < thresholds.min_iterations) {
          d.verdict = Verdict::kLowIterations;
        } else {
          d.verdict =
              classify(brow.cpu_time, crow.cpu_time, thresholds.cpu_rel_tol);
        }
      }
      diff.benchmarks.push_back(std::move(d));
    }
    for (const auto& [bench, crow] : cand_rows) {
      if (base_rows.count(bench) != 0) continue;
      BenchmarkDelta d;
      d.report = name;
      d.benchmark = bench;
      d.time_unit = crow.time_unit;
      d.candidate_cpu = crow.cpu_time;
      d.candidate_iterations = crow.iterations;
      d.verdict = Verdict::kOnlyCandidate;
      diff.benchmarks.push_back(std::move(d));
    }

    compare_counters(name, base, cand);
    const bool base_traced = bool_or(base->doc, "trace_enabled");
    const bool cand_traced = bool_or(cand->doc, "trace_enabled");
    if (base_traced != cand_traced) {
      diff.problems.push_back(
          name + ": only the " + (base_traced ? "baseline" : "candidate") +
          " ran with CCMX_TRACE; an untraced run counts nothing");
    }

    if (base->max_rss_bytes > 0 && cand->max_rss_bytes > 0) {
      RssDelta d;
      d.report = name;
      d.baseline_bytes = base->max_rss_bytes;
      d.candidate_bytes = cand->max_rss_bytes;
      d.ratio = safe_ratio(static_cast<double>(base->max_rss_bytes),
                           static_cast<double>(cand->max_rss_bytes));
      d.verdict = classify(static_cast<double>(base->max_rss_bytes),
                           static_cast<double>(cand->max_rss_bytes),
                           thresholds.rss_rel_tol);
      diff.rss.push_back(std::move(d));
    }
  }
  for (const auto& [name, cand] : cand_by_name) {
    if (base_by_name.count(name) != 0) continue;
    emit_one_sided(name, benchmark_map(cand->doc), Verdict::kOnlyCandidate);
    compare_counters(name, nullptr, cand);
  }
  return diff;
}

std::string render_bench_diff_json(const BenchDiff& diff) {
  std::ostringstream os;
  json::Writer w(os);
  w.begin_object();
  w.key("schema").value(kBenchDiffSchema);
  w.key("git_sha").value(build_git_sha());
  w.key("baseline_dir").value(diff.baseline_dir);
  w.key("candidate_dir").value(diff.candidate_dir);
  w.key("thresholds").begin_object();
  w.key("cpu_rel_tol").value(diff.thresholds.cpu_rel_tol);
  w.key("rss_rel_tol").value(diff.thresholds.rss_rel_tol);
  w.key("min_iterations").value(diff.thresholds.min_iterations);
  w.end_object();
  write_verdict_counts(w, diff);
  w.key("benchmarks").begin_array();
  for (const BenchmarkDelta& d : diff.benchmarks) {
    w.begin_object();
    w.key("report").value(d.report);
    w.key("benchmark").value(d.benchmark);
    w.key("time_unit").value(d.time_unit);
    w.key("baseline_cpu").value(d.baseline_cpu);
    w.key("candidate_cpu").value(d.candidate_cpu);
    w.key("baseline_iterations").value(d.baseline_iterations);
    w.key("candidate_iterations").value(d.candidate_iterations);
    w.key("ratio").value(d.ratio);
    w.key("verdict").value(verdict_name(d.verdict));
    w.end_object();
  }
  w.end_array();
  w.key("counters").begin_array();
  for (const CounterDelta& d : diff.counters) {
    w.begin_object();
    w.key("report").value(d.report);
    w.key("counter").value(d.counter);
    w.key("baseline").value(d.baseline);
    w.key("candidate").value(d.candidate);
    w.key("verdict").value(verdict_name(d.verdict));
    w.end_object();
  }
  w.end_array();
  w.key("rss").begin_array();
  for (const RssDelta& d : diff.rss) {
    w.begin_object();
    w.key("report").value(d.report);
    w.key("baseline_bytes").value(d.baseline_bytes);
    w.key("candidate_bytes").value(d.candidate_bytes);
    w.key("ratio").value(d.ratio);
    w.key("verdict").value(verdict_name(d.verdict));
    w.end_object();
  }
  w.end_array();
  w.key("problems").begin_array();
  for (const std::string& p : diff.problems) w.value(p);
  w.end_array();
  w.end_object();
  os << '\n';
  return os.str();
}

std::string render_bench_diff_markdown(const BenchDiff& diff) {
  std::ostringstream os;
  os << "## Bench diff — " << diff.baseline_dir << " vs "
     << diff.candidate_dir << "\n\n";
  os << "- regressions: **" << diff.count(Verdict::kRegression) << "**, "
     << "improvements: " << diff.count(Verdict::kImprovement) << ", "
     << "within noise: " << diff.count(Verdict::kWithinNoise) << ", "
     << "low-iteration (ungated): " << diff.count(Verdict::kLowIterations)
     << "\n";
  os << "- thresholds: cpu ±" << fmt_num(diff.thresholds.cpu_rel_tol * 100)
     << "%, rss ±" << fmt_num(diff.thresholds.rss_rel_tol * 100)
     << "%, min iterations " << diff.thresholds.min_iterations
     << "; table counters exact\n\n";

  const auto interesting = [](Verdict v) {
    return v != Verdict::kWithinNoise;
  };
  bool any_bench = std::any_of(
      diff.benchmarks.begin(), diff.benchmarks.end(),
      [&](const BenchmarkDelta& d) { return interesting(d.verdict); });
  if (any_bench) {
    os << "| report | benchmark | baseline cpu | candidate cpu | ratio | "
          "verdict |\n|---|---|---|---|---|---|\n";
    for (const BenchmarkDelta& d : diff.benchmarks) {
      if (!interesting(d.verdict)) continue;
      os << "| " << d.report << " | " << d.benchmark << " | "
         << fmt_num(d.baseline_cpu) << ' ' << d.time_unit << " | "
         << fmt_num(d.candidate_cpu) << ' ' << d.time_unit << " | "
         << fmt_ratio(d.ratio) << " | " << verdict_name(d.verdict) << " |\n";
    }
    os << '\n';
  } else {
    os << "All " << diff.benchmarks.size()
       << " benchmark timings within noise.\n\n";
  }

  if (diff.has_counter_mismatch()) {
    os << "Table counters that do not match (a changed count needs a "
          "refreshed bench/baseline):\n\n"
          "| report | counter | baseline | candidate | verdict |\n"
          "|---|---|---|---|---|\n";
    for (const CounterDelta& d : diff.counters) {
      if (d.verdict == Verdict::kEqual) continue;
      os << "| " << d.report << " | " << d.counter << " | "
         << (d.verdict == Verdict::kOnlyCandidate ? "-" : fmt_num(d.baseline))
         << " | "
         << (d.verdict == Verdict::kOnlyBaseline ? "-" : fmt_num(d.candidate))
         << " | " << verdict_name(d.verdict) << " |\n";
    }
    os << '\n';
  } else if (!diff.counters.empty()) {
    os << "All " << diff.counters.size() << " table counters equal.\n\n";
  } else {
    os << "No report carries table counters: nothing gated exactly.\n\n";
  }

  for (const RssDelta& d : diff.rss) {
    if (!interesting(d.verdict)) continue;
    os << "- max RSS " << verdict_name(d.verdict) << " in " << d.report
       << ": " << d.baseline_bytes << " -> " << d.candidate_bytes
       << " bytes (ratio " << fmt_ratio(d.ratio) << ")\n";
  }
  for (const std::string& p : diff.problems) os << "- ⚠ " << p << '\n';
  return os.str();
}

namespace {

void check_delta_array(const json::Value& doc, std::string_view key,
                       const std::vector<const char*>& numeric_fields,
                       const std::vector<const char*>& string_fields,
                       std::vector<std::string>& problems) {
  const json::Value* arr = doc.find(key);
  if (arr == nullptr || !arr->is_array()) {
    problems.push_back("missing array \"" + std::string(key) + '"');
    return;
  }
  for (std::size_t i = 0; i < arr->array.size(); ++i) {
    const json::Value& entry = arr->array[i];
    const std::string where =
        std::string(key) + '[' + std::to_string(i) + ']';
    if (!entry.is_object()) {
      problems.push_back(where + " is not an object");
      continue;
    }
    for (const char* field : numeric_fields) {
      const json::Value* v = entry.find(field);
      if (v == nullptr || !v->is_number()) {
        problems.push_back(where + " missing numeric \"" + field + '"');
      }
    }
    for (const char* field : string_fields) {
      const json::Value* v = entry.find(field);
      if (v == nullptr || !v->is_string()) {
        problems.push_back(where + " missing string \"" + field + '"');
      }
    }
    if (const json::Value* verdict = entry.find("verdict");
        verdict != nullptr && verdict->is_string()) {
      static constexpr std::string_view kVerdicts[] = {
          "within_noise",  "improvement",    "regression", "low_iterations",
          "only_baseline", "only_candidate", "equal",      "changed"};
      if (std::find(std::begin(kVerdicts), std::end(kVerdicts),
                    verdict->string) == std::end(kVerdicts)) {
        problems.push_back(where + " has unknown verdict \"" +
                           verdict->string + '"');
      }
    }
  }
}

}  // namespace

std::vector<std::string> validate_bench_diff(const json::Value& doc) {
  std::vector<std::string> problems;
  if (!doc.is_object()) {
    problems.emplace_back("document is not an object");
    return problems;
  }
  const json::Value* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string()) {
    problems.emplace_back("missing string \"schema\"");
  } else if (schema->string != kBenchDiffSchema) {
    problems.push_back("unrecognized schema \"" + schema->string + '"');
  }
  const json::Value* thresholds = doc.find("thresholds");
  if (thresholds == nullptr || !thresholds->is_object()) {
    problems.emplace_back("missing object \"thresholds\"");
  } else {
    for (const char* field : {"cpu_rel_tol", "rss_rel_tol", "min_iterations"}) {
      const json::Value* v = thresholds->find(field);
      if (v == nullptr || !v->is_number()) {
        problems.push_back("thresholds missing numeric \"" +
                           std::string(field) + '"');
      }
    }
  }
  const json::Value* summary = doc.find("summary");
  if (summary == nullptr || !summary->is_object()) {
    problems.emplace_back("missing object \"summary\"");
  } else {
    for (const char* field : {"regressions", "improvements", "within_noise",
                              "low_iterations"}) {
      const json::Value* v = summary->find(field);
      if (v == nullptr || !v->is_number()) {
        problems.push_back("summary missing numeric \"" + std::string(field) +
                           '"');
      }
    }
    for (const char* field : {"cpu_regression", "counter_mismatch"}) {
      const json::Value* gate = summary->find(field);
      if (gate == nullptr || !gate->is_bool()) {
        problems.push_back("summary missing bool \"" + std::string(field) +
                           '"');
      }
    }
  }
  check_delta_array(doc, "benchmarks",
                    {"baseline_cpu", "candidate_cpu", "baseline_iterations",
                     "candidate_iterations", "ratio"},
                    {"report", "benchmark", "verdict", "time_unit"}, problems);
  check_delta_array(doc, "counters", {"baseline", "candidate"},
                    {"report", "counter", "verdict"}, problems);
  check_delta_array(doc, "rss", {"baseline_bytes", "candidate_bytes", "ratio"},
                    {"report", "verdict"}, problems);
  if (const json::Value* probs = doc.find("problems");
      probs == nullptr || !probs->is_array()) {
    problems.emplace_back("missing array \"problems\"");
  }
  return problems;
}

}  // namespace ccmx::obs
