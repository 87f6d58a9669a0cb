// ccmx_lint engine tests: each rule demonstrated on a deliberately
// violating fixture from tests/lint_fixtures/, plus suppressions,
// fingerprint/baseline behavior, the directory walker, the JSON report,
// and the repo-is-clean gate itself.
#include "lint/lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

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
  // (Linting this .cpp fixture text under an .hpp path legitimately fires
  // R6; only the schema rule's exemption is under test here.)
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

TEST(LintRules, R6FlagsMissingPragmaOnce) {
  const std::string text = read_fixture("r6_no_pragma.hpp");
  const lint::FileLint result = lint::lint_text("src/r6_no_pragma.hpp", text);
  ASSERT_EQ(result.findings.size(), 1u) << testing::PrintToString(
      rules_of(result));
  EXPECT_EQ(result.findings[0].rule, "include-hygiene");
  // "#pragma once" inside the fixture's comment must not satisfy it.
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

TEST(LintBaseline, FingerprintEmbedsTheRuleVersion) {
  // S3 bugfix: two different rules (or two versions of one rule) can
  // flag the same squashed snippet in the same file; the fingerprint
  // must keep them distinct.  R1..R6 are at v2; R7 (signal-safety) was
  // born after the fingerprint-format change and starts at v1.
  for (const lint::RuleInfo& rule : lint::rules()) {
    const unsigned expected = rule.name == "signal-safety" ? 1u : 2u;
    EXPECT_EQ(rule.version, expected) << rule.name;
    EXPECT_EQ(lint::rule_version(rule.name), expected) << rule.name;
  }
  EXPECT_EQ(lint::rule_version("no-such-rule"), 1u);  // default
  const lint::Finding narrow{"narrow", "src/x.cpp", 3, "m", "int y = f(v);"};
  lint::Finding rng = narrow;
  rng.rule = "rng";
  EXPECT_NE(lint::finding_fingerprint(narrow), lint::finding_fingerprint(rng));
  EXPECT_NE(lint::finding_fingerprint(narrow).find("narrow@v2|"),
            std::string::npos);
}

TEST(LintFix, PragmaOnceInsertionIsIdempotentAndRespectsAllows) {
  const std::string bare = "// header comment\n\nint value();\n";
  const lint::FixOutcome fixed = lint::fix_pragma_once(bare);
  ASSERT_EQ(fixed.status, lint::FixOutcome::Status::kFixed);
  // Inserted after the leading comment block, before the first code.
  EXPECT_NE(fixed.text.find("#pragma once"), std::string::npos);
  EXPECT_LT(fixed.text.find("// header comment"),
            fixed.text.find("#pragma once"));
  EXPECT_LT(fixed.text.find("#pragma once"), fixed.text.find("int value"));
  // The fixed text now passes R6 and a second fix is a no-op.
  EXPECT_EQ(count_rule(lint::lint_text("src/h.hpp", fixed.text),
                       "include-hygiene"),
            0u);
  EXPECT_EQ(lint::fix_pragma_once(fixed.text).status,
            lint::FixOutcome::Status::kAlreadyClean);
  // A header that opted out via allow(include-hygiene) is refused.
  const std::string opted_out =
      "// ccmx-lint: allow(include-hygiene)\nint value();\n";
  EXPECT_EQ(lint::fix_pragma_once(opted_out).status,
            lint::FixOutcome::Status::kRefused);
}

TEST(LintRun, PerRuleTimingsCoverEveryRule) {
  const lint::FileLint file =
      lint::lint_text("src/t.cpp", "int f(long v) { return 0; }\n");
  std::vector<std::string> timed;
  for (const lint::RuleTiming& t : file.timings) {
    timed.push_back(t.rule);
    EXPECT_GE(t.wall_seconds, 0.0);
    EXPECT_GE(t.cpu_seconds, 0.0);
  }
  for (const lint::RuleInfo& rule : lint::rules()) {
    EXPECT_NE(std::find(timed.begin(), timed.end(), rule.name), timed.end())
        << rule.name;
  }
}

TEST(LintBaseline, FingerprintIgnoresLineNumbers) {
  lint::Finding a{"narrow", "src/x.cpp", 10, "m", "return static_cast<int>(v);"};
  lint::Finding b = a;
  b.line = 99;
  b.snippet = "return   static_cast<int>(v);";  // re-indented
  EXPECT_EQ(lint::finding_fingerprint(a), lint::finding_fingerprint(b));
  b.snippet = "return static_cast<short>(v);";
  EXPECT_NE(lint::finding_fingerprint(a), lint::finding_fingerprint(b));
}

TEST(LintBaseline, RoundTripsThroughRenderAndLoad) {
  const lint::Finding kept{"narrow", "src/x.cpp", 3, "m", "int y = 0;"};
  const lint::Finding other{"rng", "src/y.cpp", 4, "m", "std_rand();"};
  const lint::Baseline built = lint::Baseline::from_findings({kept});
  EXPECT_TRUE(built.contains(kept));
  EXPECT_FALSE(built.contains(other));

  const fs::path path =
      fs::path(testing::TempDir()) / "ccmx_lint_baseline_test.txt";
  {
    std::ofstream out(path, std::ios::trunc);
    out << built.render() << "\n# trailing comment\n\n";
  }
  const lint::Baseline loaded = lint::Baseline::load(path.string());
  EXPECT_EQ(loaded.size(), 1u);
  EXPECT_TRUE(loaded.contains(kept));
  EXPECT_FALSE(loaded.contains(other));
  fs::remove(path);
}

TEST(LintBaseline, MissingFileLoadsEmpty) {
  const lint::Baseline empty =
      lint::Baseline::load("/nonexistent/ccmx/baseline.txt");
  EXPECT_EQ(empty.size(), 0u);
}

TEST(LintRun, WalkerSkipsFixturesAndAppliesBaseline) {
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
  const lint::RunResult unbaselined = lint::run_lint(options);
  EXPECT_EQ(unbaselined.files_scanned, 2u);
  ASSERT_EQ(unbaselined.findings.size(), 1u);
  EXPECT_EQ(unbaselined.findings[0].file, "src/a.cpp");
  EXPECT_TRUE(unbaselined.baselined.empty());

  const fs::path baseline_path = root / "baseline.txt";
  {
    std::ofstream out(baseline_path);
    out << lint::Baseline::from_findings(unbaselined.findings).render();
  }
  options.baseline_path = baseline_path.string();
  const lint::RunResult baselined = lint::run_lint(options);
  EXPECT_TRUE(baselined.findings.empty());
  EXPECT_EQ(baselined.baselined.size(), 1u);
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

  // A foreign schema id must be rejected.
  const ccmx::obs::json::Value bad = ccmx::obs::json::parse(
      "{\"schema\":\"ccmx.run_report/1\",\"files_scanned\":0,"
      "\"suppressed\":0,\"baselined\":0,\"findings\":[]}");
  EXPECT_FALSE(lint::validate_lint_report(bad).empty());
}

TEST(LintGate, RepoIsCleanUnderTheCommittedBaseline) {
  // The acceptance gate, enforced from tier-1 tests: linting the actual
  // repo with its committed baseline yields zero active findings.
  lint::RunOptions options;
  options.root = CCMX_REPO_ROOT;
  options.baseline_path =
      std::string(CCMX_REPO_ROOT) + "/tools/lint_baseline.txt";
  const lint::RunResult result = lint::run_lint(options);
  EXPECT_GT(result.files_scanned, 100u);
  for (const lint::Finding& f : result.findings) {
    ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule << "] "
                  << f.message;
  }
}

}  // namespace
