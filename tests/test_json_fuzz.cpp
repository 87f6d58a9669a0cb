// Seeded mutation fuzz for obs::json::parse, the reader under every
// offline tool: run reports, bench diffs, traces, profiles
// and timeseries all go through it.  Writer-produced documents are
// bit-flipped, overwritten, grown, cut, truncated and spliced into each
// other by a Xoshiro256 mutator; every input must either parse or throw
// contract_error — never crash, hang or throw anything else.  Runs under
// the ASan+UBSan job like the rest of tier 1.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/json_reader.hpp"
#include "obs/report.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace {

using namespace ccmx;

constexpr std::size_t kIterations = 100000;
constexpr std::size_t kMaxInput = 8192;  // keeps splices from snowballing

std::vector<std::string> writer_seeds() {
  obs::RunReport report;
  report.name = "fuzz";
  report.argv = {"test_json_fuzz", "--iterations", "100000"};
  report.wall_seconds = 1.5;
  report.cpu_seconds = 1.25;
  obs::BenchmarkRun run;
  run.name = "BM_Fuzz/8";
  run.iterations = 42;
  run.real_time = 1234.5;
  run.cpu_time = 1200.25;
  report.benchmarks.push_back(run);
  obs::BenchmarkRun failed;
  failed.name = "BM_Fuzz/9";
  failed.error = true;
  failed.error_message = "tab\t \"quoted\" \\ newline\n \x01";
  report.benchmarks.push_back(failed);

  obs::BenchDiff diff;
  diff.baseline_dir = "bench/baseline";
  diff.candidate_dir = "bench/out";
  obs::BenchmarkDelta slower;
  slower.report = "fuzz";
  slower.benchmark = "BM_Fuzz/8";
  slower.time_unit = "ns";
  slower.baseline_cpu = 1000.0;
  slower.candidate_cpu = 1300.0;
  slower.baseline_iterations = 40;
  slower.candidate_iterations = 42;
  slower.ratio = 1.3;
  slower.verdict = obs::Verdict::kRegression;
  diff.benchmarks.push_back(slower);
  obs::CounterDelta bits;
  bits.report = "fuzz";
  bits.counter = "comm.bits.total";
  bits.baseline = 4096.0;
  bits.candidate = 4096.0;
  diff.counters.push_back(bits);
  diff.problems.emplace_back("bench/baseline/BENCH_gone.json: cannot open");

  return {
      obs::render_run_report(report),
      obs::render_bench_diff_json(diff),
      // One line each as the trace sink and the profiler write them.
      R"j({"ev":"span","id":2,"parent":1,"tid":1,"name":"comm.execute",)j"
      R"j("t_us":652,"dur_us":23,"args":{"protocol":"send-half/singularity",)j"
      R"j("bits":129,"rounds":2,"hw.available":"false"}})j",
      R"j({"ev":"frame","id":1,"pc":94194285725889,"sym":)j"
      R"j("ccmx::la::rank(ccmx::la::Matrix<ccmx::num::BigInt> const&)",)j"
      R"j("module":"ccmx_cli","off":321,"symbolized":true})j",
  };
}

/// Bytes the grammar cares about, so overwrites and inserts hit the
/// parser's branches more often than uniform noise would.
constexpr std::string_view kTokens = "{}[]\":,\\/-+.eE0123456789tfnu \t\r\n";

char random_byte(util::Xoshiro256& rng) {
  if (rng.below(2) == 0) return kTokens[rng.below(kTokens.size())];
  return static_cast<char>(rng.below(256));
}

/// Applies one mutation to `input`: flip a bit, overwrite or insert a
/// byte, delete or duplicate a run, truncate, or splice in a slice of
/// another seed.
void mutate(std::string& input, const std::vector<std::string>& seeds,
            util::Xoshiro256& rng) {
  const auto offset = [&rng](std::size_t size) {
    return static_cast<std::size_t>(rng.below(size + 1));
  };
  switch (rng.below(7)) {
    case 0:  // bit flip
      if (!input.empty()) {
        input[rng.below(input.size())] ^=
            static_cast<char>(1u << rng.below(8));
      }
      break;
    case 1:  // overwrite a byte
      if (!input.empty()) input[rng.below(input.size())] = random_byte(rng);
      break;
    case 2:  // insert a byte
      input.insert(offset(input.size()), 1, random_byte(rng));
      break;
    case 3: {  // delete a run
      const std::size_t at = offset(input.size());
      input.erase(at, 1 + rng.below(16));
      break;
    }
    case 4: {  // duplicate a run in place
      const std::size_t at = offset(input.size());
      input.insert(at, input.substr(at, 1 + rng.below(32)));
      break;
    }
    case 5:  // truncate
      input.resize(offset(input.size()));
      break;
    default: {  // splice: our head, then a slice of another seed
      const std::string& other = seeds[rng.below(seeds.size())];
      const std::size_t from = offset(other.size());
      input = input.substr(0, offset(input.size())) +
              other.substr(from, rng.below(other.size() - from + 1));
      break;
    }
  }
  if (input.size() > kMaxInput) input.resize(kMaxInput);
}

TEST(JsonFuzz, MutatedInputsParseOrThrowContractError) {
  const std::vector<std::string> seeds = writer_seeds();
  for (const std::string& seed : seeds) {
    ASSERT_NO_THROW((void)obs::json::parse(seed)) << seed;
  }
  util::Xoshiro256 rng(0x15f022);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < kIterations; ++i) {
    std::string input = seeds[rng.below(seeds.size())];
    const std::uint64_t mutations = 1 + rng.below(8);
    for (std::uint64_t m = 0; m < mutations; ++m) mutate(input, seeds, rng);
    obs::json::Value doc;
    try {
      doc = obs::json::parse(input);
    } catch (const util::contract_error&) {
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      FAIL() << "iteration " << i << " threw " << e.what()
             << " on input: " << input;
    }
    ++parsed;
    // What parses must survive the render that re-embeds documents.
    ASSERT_NO_THROW((void)obs::json::parse(obs::json::render(doc)))
        << "iteration " << i << " on input: " << input;
  }
  EXPECT_EQ(parsed + rejected, kIterations);
  // Both outcomes must be exercised, or the mutator is not fuzzing.
  EXPECT_GT(parsed, kIterations / 100);
  EXPECT_GT(rejected, kIterations / 100);
}

}  // namespace
