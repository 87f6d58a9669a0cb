// Seeded mutation fuzz for obs::TraceStream, the reader behind
// `ccmx_insight trace`, `profile --trace` and `html --trace`.  The seed
// is the JSONL trace a real instrumented comm::execute run writes (sends
// and nested spans with args); a Xoshiro256 mutator (fuzz_mutate.hpp)
// flips bits, overwrites bytes, cuts runs, truncates, and duplicates,
// swaps and deletes whole lines.  Every input must either parse or throw
// contract_error — never crash or throw anything else — and
// build_span_forest must not throw on anything that parsed.  Inputs are
// fed in random chunks, so the carry buffer is fuzzed too, and half of
// them also go through the strict parse_channel_trace.  The seed's
// timestamps differ from run to run, so a failure prints its input.
// The same mutator runs over a seed in the profiler's row format, through
// obs::load_profile (the file `ccmx_insight profile` and `html` read):
// each input must load or throw contract_error, and the profile rollups
// must run on every profile that loads.
// Runs under the ASan+UBSan job like the rest of tier 1.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "comm/channel.hpp"
#include "comm/partition.hpp"
#include "fuzz_mutate.hpp"
#include "obs/obs.hpp"
#include "obs/profile_reader.hpp"
#include "obs/trace_reader.hpp"
#include "protocols/fingerprint.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace {

using namespace ccmx;
using fuzz::mutate;
using fuzz::split_lines;

constexpr std::size_t kIterations = 100000;

/// A per-process path under the temp directory.
std::string temp_path(const std::string& stem) {
  std::string name = "ccmx_test_trace_fuzz_" + stem;
#if defined(__unix__) || defined(__APPLE__)
  name += '_';
  name += std::to_string(::getpid());
#endif
  return (std::filesystem::temp_directory_path() / (name + ".jsonl")).string();
}

/// Bytes the trace grammar cares about, so overwrites hit the reader's
/// branches (numbers, separators, line breaks) more often than noise.
constexpr std::string_view kTokens = "{}[]\":,-.e0123456789\n";

#ifndef CCMX_OBS_DISABLED

/// The trace of one traced run: a root span around a two-repetition
/// fingerprint execution (a child span and four messages in four rounds).
std::string instrumented_trace() {
  const std::string path = temp_path("trace");
  std::filesystem::remove(path);
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  EXPECT_TRUE(obs::open_trace_sink(path));
  {
    obs::ScopedSpan root("fuzz.seed");
    root.arg("n", std::uint64_t{4});
    util::Xoshiro256 rng(3);
    const la::IntMatrix m =
        la::IntMatrix::generate(4, 4, [&](std::size_t, std::size_t) {
          return num::BigInt(static_cast<std::int64_t>(rng.below(8)));
        });
    const comm::MatrixBitLayout layout(4, 4, 3);
    (void)comm::execute(
        proto::FingerprintProtocol(layout, proto::FingerprintTask::kSingularity,
                                   20, 2, 5),
        layout.encode(m), comm::Partition::pi0(layout));
  }
  obs::close_trace_sink();
  obs::set_enabled(was_enabled);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  std::filesystem::remove(path);
  return text.str();
}

TEST(TraceFuzz, MutatedTracesParseOrThrowContractError) {
  const std::string seed = instrumented_trace();
  ASSERT_GE(split_lines(seed).size(), 6u) << seed;
  ASSERT_NO_THROW((void)obs::parse_channel_trace(seed)) << seed;

  util::Xoshiro256 rng(0x7ace5eed);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < kIterations; ++i) {
    std::string input = seed;
    const std::uint64_t mutations = 1 + rng.below(4);
    for (std::uint64_t m = 0; m < mutations; ++m) mutate(input, rng, kTokens);
    // Half the inputs also go through the strict reader, which rejects
    // the torn tail the stream tolerates.
    const bool strict = rng.below(2) != 0;
    obs::TraceStream stream;
    try {
      for (std::size_t at = 0; at < input.size();) {
        const std::size_t chunk = 1 + rng.below(256);
        stream.feed(std::string_view(input).substr(at, chunk));
        at += chunk;
      }
      stream.finish();
      if (strict) (void)obs::parse_channel_trace(input);
    } catch (const util::contract_error&) {
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      FAIL() << "iteration " << i << " threw " << e.what()
             << " on input: " << input;
    }
    ++parsed;
    ASSERT_NO_THROW((void)obs::build_span_forest(stream.trace().spans))
        << "iteration " << i << " on input: " << input;
  }
  EXPECT_EQ(parsed + rejected, kIterations);
  // Both outcomes must be exercised, or the mutator is not fuzzing.
  EXPECT_GT(parsed, kIterations / 100);
  EXPECT_GT(rejected, kIterations / 100);
}

#endif  // CCMX_OBS_DISABLED

/// Runs kIterations mutations of seed through load(path): every input must
/// load or throw contract_error, and check(result, i) runs on each load.
/// Returns how many loads came back clean (nothing skipped, no problem).
template <class Load, class Check>
std::size_t fuzz_loader(const std::string& stem, const std::string& seed,
                        std::uint64_t rng_seed, Load load, Check check) {
  const std::string path = temp_path(stem);
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  util::Xoshiro256 rng(rng_seed);
  std::size_t clean = 0;
  for (std::size_t i = 0; i < kIterations; ++i) {
    std::string input = seed;
    const std::uint64_t mutations = 1 + rng.below(4);
    for (std::uint64_t m = 0; m < mutations; ++m) mutate(input, rng, kTokens);
    // Rewriting one open file in place costs a tenth of recreating it.
    file.seekp(0);
    file << input << std::flush;
    std::filesystem::resize_file(path, input.size());
    try {
      const auto result = load(path);
      if (result.skipped == 0 && result.problems.empty()) ++clean;
      check(result, i);
    } catch (const util::contract_error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "iteration " << i << " threw " << e.what()
                    << " on input: " << input;
      break;
    }
  }
  file.close();
  std::filesystem::remove(path);
  return clean;
}

/// Rows as profiler.cpp writes them: meta, frames interned on first sight
/// (one unsymbolized), leaf-first samples inside and outside a span, and
/// the closing ledger.
constexpr std::string_view kProfileSeed =
    R"({"schema":"ccmx.profile/1","ev":"meta","pid":4242,"hz":97,)"
    R"("mechanism":"timer_create","start_us":12})"
    "\n"
    R"({"ev":"frame","id":1,"pc":4198400,"sym":"ccmx::core::row_census",)"
    R"("module":"/usr/bin/ccmx_cli","off":4096,"symbolized":true})"
    "\n"
    R"({"ev":"frame","id":2,"pc":4202496,"sym":"main",)"
    R"("module":"/usr/bin/ccmx_cli","off":8192,"symbolized":true})"
    "\n"
    R"({"ev":"sample","tid":7,"span":3,"t_us":1500,"stack":[1,2]})"
    "\n"
    R"({"ev":"frame","id":3,"pc":140737488,"sym":"0x86391d0",)"
    R"("module":"","off":0,"symbolized":false})"
    "\n"
    R"({"ev":"sample","tid":8,"span":0,"t_us":1520,"stack":[3,1,2]})"
    "\n"
    R"({"ev":"sample","tid":7,"span":3,"t_us":1600,"stack":[2]})"
    "\n"
    R"({"ev":"ledger","captured":3,"written":3,"dropped":0,"truncated":0,)"
    R"("threads":2,"cpu_ns":30000000})"
    "\n";

TEST(ProfileFuzz, MutatedProfilesLoadOrThrowContractError) {
  const std::string seed(kProfileSeed);
  const std::string path = temp_path("profile_seed");
  std::ofstream(path, std::ios::binary | std::ios::trunc) << seed;
  const obs::ProfileData clean = obs::load_profile(path);
  std::filesystem::remove(path);
  ASSERT_EQ(clean.samples.size(), 3u);
  ASSERT_TRUE(clean.problems.empty() && clean.skipped == 0);
  ASSERT_TRUE(clean.ledger_balances());

  std::size_t with_samples = 0;
  const std::size_t unchanged = fuzz_loader(
      "profile", seed, 0x9f0f11e,
      [](const std::string& p) { return obs::load_profile(p); },
      [&](const obs::ProfileData& prof, std::size_t i) {
        if (!prof.samples.empty()) ++with_samples;
        // The rollups behind `ccmx_insight profile` run on whatever loaded.
        ASSERT_NO_THROW({
          (void)obs::profile_hotspots(prof);
          (void)obs::collapsed_stacks(prof);
          (void)obs::samples_by_span(prof);
          (void)obs::profile_rate_text(prof);
          (void)obs::profile_rate_warning(prof);
        }) << "iteration "
           << i;
      });
  EXPECT_GT(unchanged, kIterations / 100);
  EXPECT_LT(unchanged, kIterations - kIterations / 100);
  EXPECT_GT(with_samples, kIterations / 100);
}

TEST(LoaderFuzz, OutOfRangeNumbersReadAsMissing) {
  // A JSON number can be any double (1e999 parses as inf), and casting
  // one outside an integer field's range is undefined behaviour, which
  // -fsanitize=float-cast-overflow reports.  The loader reads such a
  // number as absent: just past int64 (9.3e18), 2^64 for a uint64 field,
  // either infinity and a negative value for an unsigned field.
  const std::string path = temp_path("out_of_range");
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << R"({"schema":"ccmx.profile/1","ev":"meta","start_us":1e999})"
      << '\n'
      << R"({"ev":"frame","id":1,"pc":1.8446744073709552e19,"off":-1})"
      << '\n'
      << R"({"ev":"sample","span":-1e999,"t_us":9.3e18,"stack":[1e20,2]})"
      << '\n';
  const obs::ProfileData prof = obs::load_profile(path);
  std::filesystem::remove(path);
  EXPECT_EQ(prof.start_us, 0);
  ASSERT_EQ(prof.frames.size(), 1u);
  EXPECT_EQ(prof.frames[0].pc, 0u);
  EXPECT_EQ(prof.frames[0].off, 0u);
  ASSERT_EQ(prof.samples.size(), 1u);
  EXPECT_EQ(prof.samples[0].span, 0u);
  EXPECT_EQ(prof.samples[0].t_us, 0);
  EXPECT_EQ(prof.samples[0].stack, std::vector<std::uint64_t>{2});
}

/// Loads a profile whose meta row carries `meta_extra` and whose one
/// sample row carries `sample_extra`.
obs::ProfileData profile_with(const std::string& tag,
                              std::string_view meta_extra,
                              std::string_view sample_extra) {
  const std::string path = temp_path(tag);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << R"({"schema":"ccmx.profile/1","ev":"meta")" << meta_extra << "}\n"
      << R"({"ev":"sample","span":1,"t_us":5,"stack":[])" << sample_extra
      << "}\n"
      << R"({"ev":"ledger","captured":1,"written":1,"dropped":0,)"
      << R"("truncated":0,"threads":1})" << '\n';
  obs::ProfileData prof = obs::load_profile(path);
  std::filesystem::remove(path);
  return prof;
}

TEST(LoaderFuzz, ProfileHzBeyondUnsignedReadsAsMissing) {
  // hz is an unsigned: 1e10 used to fail a narrowing check (Debug) or
  // wrap to 1410065408 (Release).  The load never throws for content.
  obs::ProfileData prof;
  ASSERT_NO_THROW(prof = profile_with("hz", R"(,"hz":1e10)", ""));
  EXPECT_EQ(prof.hz, 0u);
  EXPECT_TRUE(prof.problems.empty());
  EXPECT_EQ(profile_with("hz_ok", R"(,"hz":97)", "").hz, 97u);
}

TEST(LoaderFuzz, ProfileTidBeyondUint32ReadsAsMissing) {
  obs::ProfileData prof;
  ASSERT_NO_THROW(prof = profile_with("tid", "", R"(,"tid":4294967297)"));
  ASSERT_EQ(prof.samples.size(), 1u);
  EXPECT_EQ(prof.samples[0].tid, 0u);
  EXPECT_EQ(profile_with("tid_ok", "", R"(,"tid":3)").samples[0].tid, 3u);
}

}  // namespace
