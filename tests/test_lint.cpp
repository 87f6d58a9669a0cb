// ccmx_lint engine tests: each rule demonstrated on a deliberately
// violating fixture from tests/lint_fixtures/, plus suppressions, the
// directory walker, the JSON report, and the repo-is-clean gate itself.
#include "lint/lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/arch.hpp"
#include "obs/json_reader.hpp"
#include "obs/schemas.hpp"

namespace lint = ccmx::lint;
namespace fs = std::filesystem;

namespace {

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(CCMX_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::string> rules_of(const lint::FileLint& result) {
  std::vector<std::string> out;
  out.reserve(result.findings.size());
  for (const lint::Finding& f : result.findings) out.push_back(f.rule);
  return out;
}

std::size_t count_rule(const lint::FileLint& result, std::string_view rule) {
  std::size_t n = 0;
  for (const lint::Finding& f : result.findings) n += (f.rule == rule);
  return n;
}

void write_file(const fs::path& path, const std::string& text) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out << text;
}

TEST(LintRules, R1FlagsNarrowingCastsInSrc) {
  const std::string text = read_fixture("r1_narrowing.cpp");
  const lint::FileLint result = lint::lint_text("src/r1_narrowing.cpp", text);
  ASSERT_EQ(result.findings.size(), 2u) << testing::PrintToString(
      rules_of(result));
  EXPECT_EQ(result.findings[0].rule, "narrow");
  EXPECT_EQ(result.findings[0].line, 4u);
  EXPECT_NE(result.findings[0].snippet.find("static_cast<int>"),
            std::string::npos);
  EXPECT_EQ(result.findings[1].rule, "narrow");
  EXPECT_EQ(result.findings[1].line, 7u);
  EXPECT_EQ(result.suppressed, 0u);
}

TEST(LintRules, R1OnlyAppliesUnderSrc) {
  const std::string text = read_fixture("r1_narrowing.cpp");
  EXPECT_TRUE(lint::lint_text("tools/r1_narrowing.cpp", text).findings.empty());
  EXPECT_TRUE(lint::lint_text("tests/r1_narrowing.cpp", text).findings.empty());
}

TEST(LintRules, R2FlagsUnenforcedDocumentedPrecondition) {
  const std::string text = read_fixture("r2_require.hpp");
  const lint::FileLint result = lint::lint_text("src/r2_require.hpp", text);
  ASSERT_EQ(result.findings.size(), 1u) << testing::PrintToString(
      rules_of(result));
  EXPECT_EQ(result.findings[0].rule, "require");
  EXPECT_EQ(result.findings[0].line, 8u);  // inline int divide_budget(...)
  EXPECT_NE(result.findings[0].snippet.find("divide_budget"),
            std::string::npos);
}

TEST(LintRules, R2SkipsCppFiles) {
  // Enforcement may live out-of-line; only headers are in scope.
  const std::string text = read_fixture("r2_require.hpp");
  EXPECT_TRUE(lint::lint_text("src/r2_require.cpp", text).findings.empty());
}

TEST(LintRules, R3FlagsStraySchemaLiterals) {
  const std::string text = read_fixture("r3_schema.cpp");
  const lint::FileLint result = lint::lint_text("src/r3_schema.cpp", text);
  ASSERT_EQ(result.findings.size(), 1u) << testing::PrintToString(
      rules_of(result));
  EXPECT_EQ(result.findings[0].rule, "schema");
  EXPECT_EQ(result.findings[0].line, 5u);
  EXPECT_NE(result.findings[0].message.find("ccmx.rogue_report/1"),
            std::string::npos);
}

TEST(LintRules, R3SparesTestsAndTheRegistryItself) {
  const std::string text = read_fixture("r3_schema.cpp");
  // Tests legitimately embed schema literals in JSON test documents.
  EXPECT_TRUE(lint::lint_text("tests/r3_schema.cpp", text).findings.empty());
  EXPECT_EQ(count_rule(lint::lint_text("src/obs/schemas.hpp", text), "schema"),
            0u);
}

TEST(LintRules, R4FlagsHandRolledBenchMain) {
  const std::string text = read_fixture("r4_bench_main.cpp");
  const lint::FileLint result =
      lint::lint_text("bench/bench_fixture.cpp", text);
  ASSERT_EQ(result.findings.size(), 2u) << testing::PrintToString(
      rules_of(result));
  EXPECT_EQ(result.findings[0].rule, "bench-main");
  EXPECT_EQ(result.findings[0].line, 1u);  // no CCMX_BENCH_MAIN at all
  EXPECT_EQ(result.findings[1].rule, "bench-main");
  EXPECT_EQ(result.findings[1].line, 5u);  // int main(...)
}

TEST(LintRules, R4OnlyAppliesToBenchBinaries) {
  const std::string text = read_fixture("r4_bench_main.cpp");
  EXPECT_TRUE(lint::lint_text("bench/helper.cpp", text).findings.empty());
  EXPECT_TRUE(lint::lint_text("tools/bench_tool.cpp", text).findings.empty());
}

TEST(LintRules, R5FlagsUnvettedRandomness) {
  const std::string text = read_fixture("r5_rng.cpp");
  const lint::FileLint result = lint::lint_text("src/r5_rng.cpp", text);
  ASSERT_EQ(result.findings.size(), 3u) << testing::PrintToString(
      rules_of(result));
  EXPECT_EQ(result.findings[0].rule, "rng");
  EXPECT_EQ(result.findings[0].line, 6u);   // std::mt19937
  EXPECT_EQ(result.findings[1].line, 7u);   // std::random_device
  EXPECT_EQ(result.findings[2].line, 10u);  // std::rand()
}

TEST(LintRules, R5SparesUtilRngItself) {
  const std::string text = read_fixture("r5_rng.cpp");
  EXPECT_EQ(count_rule(lint::lint_text("src/util/rng.hpp", text), "rng"), 0u);
  EXPECT_TRUE(lint::lint_text("src/util/rng.cpp", text).findings.empty());
}

TEST(LintRules, R7FlagsDenylistInsideMarkedFunctionsOnly) {
  const std::string text = read_fixture("r7_signal_safety.cpp");
  const lint::FileLint result =
      lint::lint_text("src/r7_signal_safety.cpp", text);
  ASSERT_EQ(result.findings.size(), 5u) << testing::PrintToString(
      rules_of(result));
  for (const lint::Finding& f : result.findings) {
    EXPECT_EQ(f.rule, "signal-safety");
  }
  EXPECT_EQ(result.findings[0].line, 16u);  // std::malloc
  EXPECT_EQ(result.findings[1].line, 17u);  // std::printf
  EXPECT_EQ(result.findings[2].line, 18u);  // std::string construction
  EXPECT_EQ(result.findings[3].line, 19u);  // std::mutex
  EXPECT_EQ(result.findings[4].line, 20u);  // std::free
  // The same calls outside a marked body (normal_context, after) never
  // fire, and the deliberate fprintf carries its allow(signal-safety).
  EXPECT_EQ(result.suppressed, 1u);
}

TEST(LintRules, R7RealSignalHandlersInTheRepoAreClean) {
  // The profiler's actual signal-context functions are the rule's
  // raison d'être: they must lint clean, unsuppressed.
#ifndef CCMX_REPO_ROOT
  GTEST_SKIP() << "CCMX_REPO_ROOT not defined";
#else
  const std::string path =
      std::string(CCMX_REPO_ROOT) + "/src/obs/profiler.cpp";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  const lint::FileLint result =
      lint::lint_text("src/obs/profiler.cpp", text.str());
  EXPECT_EQ(count_rule(result, "signal-safety"), 0u)
      << testing::PrintToString(rules_of(result));
#endif
}

TEST(LintRules, SuppressionsSilenceSameLineAndLineAbove) {
  const std::string text = read_fixture("suppressed.cpp");
  const lint::FileLint result = lint::lint_text("src/suppressed.cpp", text);
  ASSERT_EQ(result.findings.size(), 1u) << testing::PrintToString(
      rules_of(result));
  EXPECT_EQ(result.findings[0].line, 19u);  // allow(rng) names the wrong rule
  EXPECT_EQ(result.suppressed, 3u);         // allow(narrow), allow(r1), allow(all)
}

TEST(LintRun, WalkerSkipsFixtureBuildAndHiddenDirs) {
  const fs::path root = fs::path(testing::TempDir()) / "ccmx_lint_run_test";
  fs::remove_all(root);
  const std::string violation =
      "int shrink(long v) { return static_cast<int>(v); }\n";
  write_file(root / "src" / "a.cpp", violation);
  write_file(root / "src" / "b.cpp",
             "long widen(int v) { return static_cast<long>(v); }\n");
  // Must all be skipped: fixture trees, build trees, hidden dirs.
  write_file(root / "src" / "lint_fixtures" / "bad.cpp", violation);
  write_file(root / "src" / "build" / "bad.cpp", violation);
  write_file(root / "src" / ".hidden" / "bad.cpp", violation);

  lint::RunOptions options;
  options.root = root.string();
  const lint::RunResult result = lint::run_lint(options);
  EXPECT_EQ(result.files_scanned, 2u);
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].file, "src/a.cpp");
  fs::remove_all(root);
}

TEST(LintReport, JsonValidatesAgainstSchema) {
  lint::RunOptions options;
  options.root = ".";
  lint::RunResult result;
  result.files_scanned = 2;
  result.findings.push_back(
      {"narrow", "src/a.cpp", 1, "msg", "static_cast<int>(v)"});
  const std::string json = lint::render_lint_report_json(result, options);
  const ccmx::obs::json::Value doc = ccmx::obs::json::parse(json);
  EXPECT_TRUE(lint::validate_lint_report(doc).empty());
  const ccmx::obs::json::Value* schema = doc.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string, ccmx::obs::kLintReportSchema);
  EXPECT_TRUE(ccmx::obs::is_registered_schema(schema->string));
  // Version 2 dropped the baseline count and the per-rule timings.
  EXPECT_EQ(doc.find("baselined"), nullptr);
  EXPECT_EQ(doc.find("timings"), nullptr);

  // A foreign schema id must be rejected.
  const ccmx::obs::json::Value bad = ccmx::obs::json::parse(
      "{\"schema\":\"ccmx.run_report/1\",\"files_scanned\":0,"
      "\"suppressed\":0,\"findings\":[]}");
  EXPECT_FALSE(lint::validate_lint_report(bad).empty());
}

TEST(LintGate, RepoHasNoLintFindings) {
  // The acceptance gate, enforced from tier-1 tests: linting the actual
  // repo yields zero findings, and the lexical and arch passes walk the
  // same files (one default subdir list for both).
  lint::RunOptions options;
  options.root = CCMX_REPO_ROOT;
  const lint::RunResult result = lint::run_lint(options);
  EXPECT_GT(result.files_scanned, 100u);
  for (const lint::Finding& f : result.findings) {
    ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule << "] "
                  << f.message;
  }
  lint::ArchOptions arch_options;
  arch_options.root = CCMX_REPO_ROOT;
  EXPECT_EQ(lint::run_arch(arch_options).files_scanned,
            result.files_scanned);
}

}  // namespace
