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

/// candidate/baseline classified against a symmetric relative tolerance;
/// `lower_is_better` is true for times/RSS, false never so far but kept
/// explicit at the call sites via how ratio is read.
Verdict classify(double baseline, double candidate, double rel_tol) {
  if (baseline <= 0.0) {
    // Degenerate baseline (zero counter, zero time): any nonzero
    // candidate is a change we cannot express as a ratio; flag only a
    // real appearance.
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

/// Pulls "counters" into an ordered map (empty when absent/untraced).
std::map<std::string, double> counter_map(const json::Value& doc) {
  std::map<std::string, double> out;
  const json::Value* counters = doc.find("counters");
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
  /// Per-row hardware attribution; absent (has_hw=false) on reports from
  /// degraded machines or predating hw counters — the differ degrades to
  /// "no hw verdict" for such rows instead of erroring.
  bool has_hw = false;
  double insn_per_iter = 0.0;
  double ipc = 0.0;
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
    if (const json::Value* hw = run.find("hw");
        hw != nullptr && hw->is_object()) {
      const json::Value* avail = hw->find("available");
      if (avail != nullptr && avail->is_bool() && avail->boolean) {
        row.insn_per_iter = number_or(run, "insn_per_iteration", 0.0);
        if (row.insn_per_iter <= 0.0 && row.iterations > 0) {
          row.insn_per_iter = number_or(*hw, "instructions", 0.0) /
                              static_cast<double>(row.iterations);
        }
        row.ipc = number_or(*hw, "ipc", 0.0);
        row.has_hw = row.insn_per_iter > 0.0;
      }
    }
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
  w.key("insn_regression").value(diff.has_insn_regression());
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
  if (const json::Value* counters = doc.find("counters");
      counters != nullptr && counters->is_object()) {
    for (const auto& [key, value] : counters->object) {
      if (!value.is_number()) {
        problems.push_back("counter \"" + key + "\" is not a number");
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
      // Optional per-row hw attribution (absent on degraded machines and
      // on reports predating the field).
      if (const json::Value* hw = run.find("hw"); hw != nullptr) {
        const json::Value* avail =
            hw->is_object() ? hw->find("available") : nullptr;
        if (avail == nullptr || !avail->is_bool()) {
          problems.push_back(where + " \"hw\" missing bool \"available\"");
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
  out.unix_time = static_cast<std::int64_t>(number_or(doc, "unix_time", 0.0));
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
  for (const InsnDelta& d : insn) n += d.verdict == v;
  for (const RssDelta& d : rss) n += d.verdict == v;
  return n;
}

bool BenchDiff::has_cpu_regression() const noexcept {
  return std::any_of(benchmarks.begin(), benchmarks.end(),
                     [](const BenchmarkDelta& d) {
                       return d.verdict == Verdict::kRegression;
                     });
}

bool BenchDiff::has_insn_regression() const noexcept {
  return std::any_of(insn.begin(), insn.end(), [](const InsnDelta& d) {
    return d.verdict == Verdict::kRegression;
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

  for (const auto& [name, base] : base_by_name) {
    const auto cand_it = cand_by_name.find(name);
    if (cand_it == cand_by_name.end()) {
      emit_one_sided(name, benchmark_map(base->doc), Verdict::kOnlyBaseline);
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

    // Instruction counts: only rows where BOTH sides carry an available
    // hw block are judged.  One-sided hw (old baseline vs new candidate,
    // or a degraded machine on one side) degrades to "no hw verdict"
    // with a diagnostic note — never an error.
    {
      const auto any_hw = [](const std::map<std::string, BenchRow>& rows) {
        return std::any_of(rows.begin(), rows.end(), [](const auto& entry) {
          return entry.second.has_hw;
        });
      };
      const bool base_hw = any_hw(base_rows);
      const bool cand_hw = any_hw(cand_rows);
      if (base_hw != cand_hw) {
        diff.problems.push_back(
            name + ": hw counters available on only one side (degraded "
                   "machine or pre-hw report?); instruction diff skipped");
      }
      for (const auto& [bench, brow] : base_rows) {
        if (!brow.has_hw) continue;
        const auto crow_it = cand_rows.find(bench);
        if (crow_it == cand_rows.end() || !crow_it->second.has_hw) continue;
        const BenchRow& crow = crow_it->second;
        InsnDelta d;
        d.report = name;
        d.benchmark = bench;
        d.baseline_insn = brow.insn_per_iter;
        d.candidate_insn = crow.insn_per_iter;
        d.baseline_ipc = brow.ipc;
        d.candidate_ipc = crow.ipc;
        d.ratio = safe_ratio(brow.insn_per_iter, crow.insn_per_iter);
        if (brow.iterations < thresholds.min_iterations ||
            crow.iterations < thresholds.min_iterations) {
          d.verdict = Verdict::kLowIterations;
        } else {
          d.verdict = classify(brow.insn_per_iter, crow.insn_per_iter,
                               thresholds.insn_rel_tol);
        }
        diff.insn.push_back(std::move(d));
      }
    }

    // Counters: only meaningful when both runs were traced — an untraced
    // run has an empty counter map, and flagging every counter as
    // "disappeared" would be pure noise.
    const std::map<std::string, double> base_counters =
        counter_map(base->doc);
    const std::map<std::string, double> cand_counters =
        counter_map(cand->doc);
    if (base_counters.empty() != cand_counters.empty()) {
      diff.problems.push_back(
          name + ": counters present on only one side (untraced run?); "
                 "counter diff skipped");
    } else {
      for (const auto& [counter, bval] : base_counters) {
        CounterDelta d;
        d.report = name;
        d.counter = counter;
        d.baseline = bval;
        const auto cval_it = cand_counters.find(counter);
        if (cval_it == cand_counters.end()) {
          d.verdict = Verdict::kOnlyBaseline;
        } else {
          d.candidate = cval_it->second;
          d.ratio = safe_ratio(bval, d.candidate);
          d.verdict = classify(bval, d.candidate, thresholds.counter_rel_tol);
        }
        diff.counters.push_back(std::move(d));
      }
      for (const auto& [counter, cval] : cand_counters) {
        if (base_counters.count(counter) != 0) continue;
        CounterDelta d;
        d.report = name;
        d.counter = counter;
        d.candidate = cval;
        d.verdict = Verdict::kOnlyCandidate;
        diff.counters.push_back(std::move(d));
      }
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
  w.key("counter_rel_tol").value(diff.thresholds.counter_rel_tol);
  w.key("rss_rel_tol").value(diff.thresholds.rss_rel_tol);
  w.key("insn_rel_tol").value(diff.thresholds.insn_rel_tol);
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
    w.key("ratio").value(d.ratio);
    w.key("verdict").value(verdict_name(d.verdict));
    w.end_object();
  }
  w.end_array();
  w.key("insn").begin_array();
  for (const InsnDelta& d : diff.insn) {
    w.begin_object();
    w.key("report").value(d.report);
    w.key("benchmark").value(d.benchmark);
    w.key("baseline_insn").value(d.baseline_insn);
    w.key("candidate_insn").value(d.candidate_insn);
    w.key("baseline_ipc").value(d.baseline_ipc);
    w.key("candidate_ipc").value(d.candidate_ipc);
    w.key("ratio").value(d.ratio);
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
     << "%, counters ±" << fmt_num(diff.thresholds.counter_rel_tol * 100)
     << "%, rss ±" << fmt_num(diff.thresholds.rss_rel_tol * 100)
     << "%, instructions ±" << fmt_num(diff.thresholds.insn_rel_tol * 100)
     << "%, min iterations " << diff.thresholds.min_iterations << "\n\n";

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

  if (diff.insn.empty()) {
    os << "Instruction counts: no benchmark carried hw counters on both "
          "sides — no hw verdict.\n\n";
  } else {
    bool any_insn = std::any_of(
        diff.insn.begin(), diff.insn.end(),
        [&](const InsnDelta& d) { return interesting(d.verdict); });
    if (any_insn) {
      os << "| report | benchmark | baseline insn/iter | candidate "
            "insn/iter | ratio | IPC (b → c) | verdict |\n"
            "|---|---|---|---|---|---|---|\n";
      for (const InsnDelta& d : diff.insn) {
        if (!interesting(d.verdict)) continue;
        os << "| " << d.report << " | " << d.benchmark << " | "
           << fmt_num(d.baseline_insn) << " | " << fmt_num(d.candidate_insn)
           << " | " << fmt_ratio(d.ratio) << " | " << fmt_num(d.baseline_ipc)
           << " → " << fmt_num(d.candidate_ipc) << " | "
           << verdict_name(d.verdict) << " |\n";
      }
      os << '\n';
    } else {
      os << "All " << diff.insn.size()
         << " instruction counts within tolerance.\n\n";
    }
  }

  bool any_counter = std::any_of(
      diff.counters.begin(), diff.counters.end(),
      [&](const CounterDelta& d) { return interesting(d.verdict); });
  if (any_counter) {
    os << "| report | counter | baseline | candidate | ratio | verdict "
          "|\n|---|---|---|---|---|---|\n";
    for (const CounterDelta& d : diff.counters) {
      if (!interesting(d.verdict)) continue;
      os << "| " << d.report << " | " << d.counter << " | "
         << fmt_num(d.baseline) << " | " << fmt_num(d.candidate) << " | "
         << fmt_ratio(d.ratio) << " | " << verdict_name(d.verdict) << " |\n";
    }
    os << '\n';
  } else if (!diff.counters.empty()) {
    os << "All " << diff.counters.size() << " counters within tolerance.\n\n";
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
          "within_noise",   "improvement",   "regression",
          "low_iterations", "only_baseline", "only_candidate"};
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
    for (const char* field : {"cpu_rel_tol", "counter_rel_tol", "insn_rel_tol",
                              "rss_rel_tol", "min_iterations"}) {
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
    for (const char* field : {"cpu_regression", "insn_regression"}) {
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
  check_delta_array(doc, "counters",
                    {"baseline", "candidate", "ratio"},
                    {"report", "counter", "verdict"}, problems);
  check_delta_array(doc, "insn",
                    {"baseline_insn", "candidate_insn", "baseline_ipc",
                     "candidate_ipc", "ratio"},
                    {"report", "benchmark", "verdict"}, problems);
  check_delta_array(doc, "rss", {"baseline_bytes", "candidate_bytes", "ratio"},
                    {"report", "verdict"}, problems);
  if (const json::Value* probs = doc.find("problems");
      probs == nullptr || !probs->is_array()) {
    problems.emplace_back("missing array \"problems\"");
  }
  return problems;
}

TrajectoryAppend append_trajectory(const LoadResult& reports,
                                   const std::string& trajectory_path) {
  TrajectoryAppend result;
  // Keys already on file: "name\nsha\nunix_time".  Unparseable lines are
  // ignored here — the trajectory is an append-only log, and dedup only
  // needs the keys it can read.
  std::vector<std::string> seen;
  {
    std::ifstream in(trajectory_path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      try {
        const json::Value doc = json::parse(line);
        seen.push_back(string_or(doc, "name", "") + '\n' +
                       string_or(doc, "git_sha", "") + '\n' +
                       fmt_num(number_or(doc, "unix_time", 0.0)));
      } catch (const util::contract_error&) {
        continue;
      }
    }
  }

  const fs::path path(trajectory_path);
  if (path.has_parent_path()) {
    fs::create_directories(path.parent_path());
  }
  std::ofstream out(trajectory_path, std::ios::app);
  CCMX_REQUIRE(out.is_open(),
               "cannot open trajectory file: " + trajectory_path);
  for (const LoadedReport& report : reports.reports) {
    const std::string key = report.name + '\n' + report.git_sha + '\n' +
                            fmt_num(static_cast<double>(report.unix_time));
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
      ++result.skipped;
      continue;
    }
    seen.push_back(key);
    std::ostringstream os;
    json::Writer w(os);
    w.begin_object();
    w.key("schema").value(kTrajectorySchema);
    w.key("name").value(report.name);
    w.key("git_sha").value(report.git_sha);
    w.key("build_type").value(report.build_type);
    w.key("unix_time").value(report.unix_time);
    w.key("wall_seconds").value(report.wall_seconds);
    w.key("cpu_seconds").value(report.cpu_seconds);
    w.key("max_rss_bytes").value(report.max_rss_bytes);
    w.key("benchmarks").begin_object();
    for (const auto& [bench, row] : benchmark_map(report.doc)) {
      w.key(bench).value(row.cpu_time);
    }
    w.end_object();
    w.key("counters").begin_object();
    for (const auto& [counter, value] : counter_map(report.doc)) {
      w.key(counter).value(value);
    }
    w.end_object();
    w.end_object();
    out << os.str() << '\n';
    ++result.appended;
  }
  out.flush();
  CCMX_REQUIRE(out.good(), "trajectory append failed: " + trajectory_path);
  return result;
}

TrajectorySeriesResult load_trajectory_series(
    const std::string& trajectory_path) {
  TrajectorySeriesResult result;
  result.trajectory_path = trajectory_path;

  // (report, benchmark) -> [(unix_time, cpu_time)].
  std::map<std::pair<std::string, std::string>,
           std::vector<std::pair<double, double>>>
      series;
  std::ifstream in(trajectory_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    json::Value doc;
    try {
      doc = json::parse(line);
    } catch (const util::contract_error&) {
      ++result.skipped;
      continue;
    }
    const json::Value* benches = doc.find("benchmarks");
    const std::string name = string_or(doc, "name", "");
    if (string_or(doc, "schema", "") != kTrajectorySchema || name.empty() ||
        benches == nullptr || !benches->is_object()) {
      ++result.skipped;
      continue;
    }
    ++result.rows;
    const double t = number_or(doc, "unix_time", 0.0);
    for (const auto& [bench, value] : benches->object) {
      if (value.is_number()) {
        series[{name, bench}].emplace_back(t, value.number);
      }
    }
  }

  for (auto& [key, points] : series) {
    std::sort(points.begin(), points.end());
    TrajectorySeries one;
    one.report = key.first;
    one.benchmark = key.second;
    one.points = std::move(points);
    result.series.push_back(std::move(one));
  }
  return result;  // std::map iteration already sorted by (report, benchmark)
}

TrendResult trend_from_trajectory(const std::string& trajectory_path) {
  constexpr std::size_t kMinPoints = 3;
  TrendResult result;
  TrajectorySeriesResult loaded = load_trajectory_series(trajectory_path);
  result.rows = loaded.rows;
  result.skipped = loaded.skipped;

  constexpr double kSecondsPerDay = 86400.0;
  for (TrajectorySeries& one : loaded.series) {
    const std::pair<std::string, std::string> key{one.report, one.benchmark};
    std::vector<std::pair<double, double>>& points = one.points;
    const double t_first = points.front().first;
    const double t_last = points.back().first;
    if (points.size() < kMinPoints || t_last <= t_first) {
      result.thin_series.push_back(key.first + "/" + key.second);
      continue;
    }
    const double n = static_cast<double>(points.size());
    double mean_t = 0.0;
    double mean_y = 0.0;
    for (const auto& [t, y] : points) {
      mean_t += t;
      mean_y += y;
    }
    mean_t /= n;
    mean_y /= n;
    double sxx = 0.0;
    double sxy = 0.0;
    double syy = 0.0;
    for (const auto& [t, y] : points) {
      const double dt = t - mean_t;
      const double dy = y - mean_y;
      sxx += dt * dt;
      sxy += dt * dy;
      syy += dy * dy;
    }
    TrendFit fit;
    fit.report = key.first;
    fit.benchmark = key.second;
    fit.points = points.size();
    fit.span_days = (t_last - t_first) / kSecondsPerDay;
    fit.mean_cpu = mean_y;
    fit.slope_per_day = (sxy / sxx) * kSecondsPerDay;  // sxx > 0: span > 0
    fit.rel_slope_per_day = mean_y > 0.0 ? fit.slope_per_day / mean_y : 0.0;
    // A flat series (syy == 0) is a perfect fit of a zero-slope line.
    fit.r2 = syy > 0.0 ? (sxy * sxy) / (sxx * syy) : 1.0;
    result.fits.push_back(std::move(fit));
  }
  std::sort(result.fits.begin(), result.fits.end(),
            [](const TrendFit& a, const TrendFit& b) {
              const double da = std::fabs(a.rel_slope_per_day);
              const double db = std::fabs(b.rel_slope_per_day);
              if (da != db) return da > db;
              return std::tie(a.report, a.benchmark) <
                     std::tie(b.report, b.benchmark);
            });
  return result;
}

}  // namespace ccmx::obs
