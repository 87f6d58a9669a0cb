// ccmx_lint arch engine tests: every architecture rule demonstrated on a
// fixture mini-repo (firing AND suppressed), the macro-surface exemption,
// the module summaries, determinism of the parallel scan, the JSON
// report round trip, the CI-shaped injected-violation demo, and the
// repo-is-clean gate.
#include "lint/arch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lint/lint.hpp"
#include "obs/json_reader.hpp"
#include "obs/schemas.hpp"

namespace lint = ccmx::lint;
namespace fs = std::filesystem;

namespace {

std::string fixture_root(const std::string& name) {
  return std::string(CCMX_LINT_FIXTURE_DIR) + "/arch/" + name;
}

lint::ArchResult run_fixture(const std::string& name) {
  lint::ArchOptions options;
  options.root = fixture_root(name);
  return lint::run_arch(options);
}

std::vector<std::string> rules_of(const lint::ArchResult& result) {
  std::vector<std::string> out;
  out.reserve(result.findings.size());
  for (const lint::Finding& f : result.findings) out.push_back(f.rule);
  return out;
}

void write_file(const fs::path& path, const std::string& text) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out << text;
}

TEST(ArchRules, RegistryListsSixRulesWithAliases) {
  const std::vector<lint::RuleInfo>& rules = lint::arch_rules();
  ASSERT_EQ(rules.size(), 6u);
  EXPECT_EQ(rules[0].name, "cycle");
  EXPECT_EQ(rules[0].alias, "a1");
  EXPECT_EQ(rules[5].name, "thread-safety");
  EXPECT_EQ(rules[5].alias, "a6");
}

TEST(ArchRules, A1FlagsModuleCycleAndHonorsSuppressions) {
  const lint::ArchResult result = run_fixture("cycle");
  ASSERT_EQ(result.findings.size(), 1u)
      << testing::PrintToString(rules_of(result));
  EXPECT_EQ(result.findings[0].rule, "cycle");
  // Anchored at the first unsuppressed edge in path order.
  EXPECT_EQ(result.findings[0].file, "src/bigint/b.hpp");
  EXPECT_NE(result.findings[0].message.find("bigint -> util -> bigint"),
            std::string::npos);
  // allow(layering) on the upward half, plus the fully suppressed
  // core <-> comm cycle and its undeclared back edge.
  EXPECT_EQ(result.suppressed, 3u);
}

TEST(ArchRules, A2FlagsUpwardEdgesButExemptsTheObsMacroSurface) {
  const lint::ArchResult result = run_fixture("layering");
  ASSERT_EQ(result.findings.size(), 3u)
      << testing::PrintToString(rules_of(result));
  // util (0) -> linalg (2).
  EXPECT_EQ(result.findings[0].rule, "layering");
  EXPECT_EQ(result.findings[0].file, "src/comm/c.hpp");
  // comm (3) -> obs (5) through a NON-surface header; the obs/obs.hpp
  // include in the same file is exempt and produces nothing.
  EXPECT_NE(result.findings[0].message.find("'comm'"), std::string::npos);
  // protocols (4) -> obs (5) through obs/hwcounters.hpp, which is not
  // part of the macro surface.
  EXPECT_EQ(result.findings[1].rule, "layering");
  EXPECT_EQ(result.findings[1].file, "src/protocols/p.hpp");
  EXPECT_NE(result.findings[1].message.find("'protocols'"),
            std::string::npos);
  EXPECT_EQ(result.findings[2].file, "src/util/u.hpp");
  EXPECT_NE(result.findings[2].message.find("'linalg'"), std::string::npos);
  // The bigint -> linalg upward edge is allowed at its only occurrence.
  EXPECT_EQ(result.suppressed, 1u);
}

TEST(ArchRules, A3FlagsUndeclaredEdgesAndUnknownModules) {
  const lint::ArchResult result = run_fixture("undeclared");
  ASSERT_EQ(result.findings.size(), 2u)
      << testing::PrintToString(rules_of(result));
  EXPECT_EQ(result.findings[0].rule, "undeclared-edge");
  EXPECT_EQ(result.findings[0].file, "src/mystery/z.hpp");
  EXPECT_NE(result.findings[0].message.find("not in the declared layering"),
            std::string::npos);
  EXPECT_EQ(result.findings[1].rule, "undeclared-edge");
  EXPECT_EQ(result.findings[1].file, "src/vlsi/v.hpp");
  EXPECT_NE(result.findings[1].message.find("'vlsi' -> 'core'"),
            std::string::npos);
  EXPECT_EQ(result.suppressed, 1u);  // allow(undeclared-edge) in lint/l.hpp
}

TEST(ArchRules, A4FlagsDeadExportsButNotPrivateMembersOrUsedOnes) {
  const lint::ArchResult result = run_fixture("dead_export");
  ASSERT_EQ(result.findings.size(), 1u)
      << testing::PrintToString(rules_of(result));
  EXPECT_EQ(result.findings[0].rule, "dead-export");
  EXPECT_NE(result.findings[0].message.find("'dead_helper'"),
            std::string::npos);
  // used_helper and Widget::visible are referenced from tests/use.cpp;
  // hidden_helper is private and therefore never an export;
  // tolerated_helper carries allow(dead-export).
  EXPECT_EQ(result.suppressed, 1u);
}

TEST(ArchRules, A5FlagsIncludesThatContributeNoSymbols) {
  const lint::ArchResult result = run_fixture("unused_include");
  ASSERT_EQ(result.findings.size(), 1u)
      << testing::PrintToString(rules_of(result));
  EXPECT_EQ(result.findings[0].rule, "unused-include");
  EXPECT_EQ(result.findings[0].file, "src/core/user.cpp");
  EXPECT_NE(result.findings[0].message.find("linalg/beta.hpp"),
            std::string::npos);
  EXPECT_EQ(result.suppressed, 1u);  // allow(unused-include) in user2.cpp
}

TEST(ArchRules, A6FlagsUnsynchronizedThreadSafeClaims) {
  const lint::ArchResult result = run_fixture("thread_safety");
  ASSERT_EQ(result.findings.size(), 1u)
      << testing::PrintToString(rules_of(result));
  EXPECT_EQ(result.findings[0].rule, "thread-safety");
  EXPECT_NE(result.findings[0].message.find("'bump'"), std::string::npos);
  EXPECT_NE(result.findings[0].message.find("g_calls"), std::string::npos);
  // bump_guarded holds a lock_guard (silent), bump_undocumented_unsafe
  // makes no thread-safety claim (out of scope), bump_tolerated is
  // allowed in place.
  EXPECT_EQ(result.suppressed, 1u);
}

TEST(ArchRun, ModuleSummariesAreSortedWithFanInFanOut) {
  const lint::ArchResult result = run_fixture("layering");
  ASSERT_GE(result.modules.size(), 4u);
  for (std::size_t i = 1; i < result.modules.size(); ++i) {
    EXPECT_LE(result.modules[i - 1].layer, result.modules[i].layer);
  }
  const auto comm = std::find_if(
      result.modules.begin(), result.modules.end(),
      [](const lint::ModuleSummary& m) { return m.name == "comm"; });
  ASSERT_NE(comm, result.modules.end());
  EXPECT_EQ(comm->layer, 3);
  // The exempt macro-surface edge still shows in the dependency display.
  EXPECT_EQ(comm->deps, std::vector<std::string>{"obs"});
  const auto obs = std::find_if(
      result.modules.begin(), result.modules.end(),
      [](const lint::ModuleSummary& m) { return m.name == "obs"; });
  ASSERT_NE(obs, result.modules.end());
  EXPECT_EQ(obs->dependents, (std::vector<std::string>{"comm", "protocols"}));
  EXPECT_GT(result.include_edges, 0u);
}

TEST(ArchRun, ParallelScanIsDeterministic) {
  const lint::ArchResult a = run_fixture("cycle");
  const lint::ArchResult b = run_fixture("cycle");
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].file, b.findings[i].file);
    EXPECT_EQ(a.findings[i].line, b.findings[i].line);
    EXPECT_EQ(a.findings[i].rule, b.findings[i].rule);
  }
  EXPECT_EQ(a.suppressed, b.suppressed);
  EXPECT_EQ(a.include_edges, b.include_edges);
}

TEST(ArchReport, JsonValidatesAgainstSchema) {
  lint::ArchOptions options;
  options.root = fixture_root("layering");
  const lint::ArchResult result = lint::run_arch(options);
  const std::string json = lint::render_arch_report_json(result, options);
  const ccmx::obs::json::Value doc = ccmx::obs::json::parse(json);
  EXPECT_TRUE(lint::validate_arch_report(doc).empty());
  const ccmx::obs::json::Value* schema = doc.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string, ccmx::obs::kArchReportSchema);
  EXPECT_TRUE(ccmx::obs::is_registered_schema(schema->string));
  const ccmx::obs::json::Value* modules = doc.find("modules");
  ASSERT_NE(modules, nullptr);
  EXPECT_EQ(modules->array.size(), result.modules.size());
  // Version 2 dropped the baseline count and the per-rule timings.
  EXPECT_EQ(doc.find("baselined"), nullptr);
  EXPECT_EQ(doc.find("timings"), nullptr);

  // A foreign schema id must be rejected.
  const ccmx::obs::json::Value bad = ccmx::obs::json::parse(
      "{\"schema\":\"ccmx.run_report/1\",\"files_scanned\":0,"
      "\"include_edges\":0,\"suppressed\":0,"
      "\"modules\":[],\"findings\":[]}");
  EXPECT_FALSE(lint::validate_arch_report(bad).empty());
}

TEST(ArchGate, InjectedLayeringViolationFailsTheGate) {
  // The CI lint job runs `ccmx_lint arch` and maps findings to exit 1;
  // this simulates a PR that sneaks an upward include past review.
  const fs::path root = fs::path(testing::TempDir()) / "ccmx_arch_inject";
  fs::remove_all(root);
  write_file(root / "src" / "util" / "sneaky.hpp",
             "#pragma once\n#include \"obs/trace_sink.hpp\"\n");
  write_file(root / "src" / "obs" / "trace_sink.hpp", "#pragma once\n");

  lint::ArchOptions options;
  options.root = root.string();
  const lint::ArchResult result = lint::run_arch(options);
  ASSERT_EQ(result.findings.size(), 1u)
      << testing::PrintToString(rules_of(result));
  EXPECT_EQ(result.findings[0].rule, "layering");
  EXPECT_EQ(result.findings[0].file, "src/util/sneaky.hpp");
  fs::remove_all(root);
}

TEST(ArchGate, RepoHasNoArchFindings) {
  // The acceptance gate: the actual repo passes `ccmx_lint arch` with
  // zero findings.  Real violations get fixed; the only way to tolerate
  // one is an allow() comment beside it.
  lint::ArchOptions options;
  options.root = CCMX_REPO_ROOT;
  const lint::ArchResult result = lint::run_arch(options);
  EXPECT_GT(result.files_scanned, 100u);
  EXPECT_GT(result.include_edges, 100u);
  for (const lint::Finding& f : result.findings) {
    ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule << "] "
                  << f.message;
  }
}

}  // namespace
