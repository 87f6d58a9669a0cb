// Seeded mutation fuzz for obs::TraceStream, the reader behind
// `ccmx_insight trace`, `profile --trace` and `html --trace`.  The seed
// is the JSONL trace a real instrumented comm::execute run writes (sends
// and nested spans with args); a Xoshiro256 mutator flips bits,
// overwrites bytes, cuts runs, truncates, and duplicates, swaps and
// deletes whole lines.  Every input must either parse or throw
// contract_error — never crash or throw anything else — and
// build_span_forest must not throw on anything that parsed.  Inputs are
// fed in random chunks, with torn-tail tolerance on or off at random, so
// the carry buffer and both finish() paths are fuzzed too.  The seed's
// timestamps differ from run to run, so a failure prints its input.
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
#include "obs/obs.hpp"
#include "obs/trace_reader.hpp"
#include "protocols/fingerprint.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace {

using namespace ccmx;

#ifndef CCMX_OBS_DISABLED

constexpr std::size_t kIterations = 100000;

/// The trace of one traced run: a root span around a two-repetition
/// fingerprint execution (a child span and four messages in four rounds).
std::string instrumented_trace() {
  std::string name = "ccmx_test_trace_fuzz";
#if defined(__unix__) || defined(__APPLE__)
  name += "_" + std::to_string(::getpid());
#endif
  const std::string path =
      (std::filesystem::temp_directory_path() / (name + ".jsonl")).string();
  std::filesystem::remove(path);
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::TraceSinkOptions options;
  options.path = path;
  EXPECT_TRUE(obs::open_trace_sink(options));
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

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t at = 0;
  while (at < text.size()) {
    const std::size_t eol = text.find('\n', at);
    if (eol == std::string::npos) {
      lines.push_back(text.substr(at));
      break;
    }
    lines.push_back(text.substr(at, eol + 1 - at));
    at = eol + 1;
  }
  return lines;
}

/// Bytes the trace grammar cares about, so overwrites hit the reader's
/// branches (numbers, separators, line breaks) more often than noise.
constexpr std::string_view kTokens = "{}[]\":,-.e0123456789\n";

/// Applies one mutation: flip a bit, overwrite a byte, cut a run,
/// truncate, or duplicate, swap or delete a line.
void mutate(std::string& input, util::Xoshiro256& rng) {
  const auto offset = [&rng](std::size_t size) {
    return static_cast<std::size_t>(rng.below(size + 1));
  };
  const std::uint64_t kind = rng.below(7);
  if (kind <= 3) {
    switch (kind) {
      case 0:  // bit flip
        if (!input.empty()) {
          input[rng.below(input.size())] ^=
              static_cast<char>(1u << rng.below(8));
        }
        break;
      case 1:  // overwrite a byte with a grammar token
        if (!input.empty()) {
          input[rng.below(input.size())] = kTokens[rng.below(kTokens.size())];
        }
        break;
      case 2:  // cut a run
        input.erase(offset(input.size()), 1 + rng.below(16));
        break;
      default:  // truncate
        input.resize(offset(input.size()));
        break;
    }
    return;
  }
  std::vector<std::string> lines = split_lines(input);
  if (lines.empty()) return;
  const std::size_t a = rng.below(lines.size());
  const std::size_t b = rng.below(lines.size());
  switch (kind) {
    case 4:  // duplicate a line
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(b), lines[a]);
      break;
    case 5:  // swap two lines
      std::swap(lines[a], lines[b]);
      break;
    default:  // delete a line
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(a));
      break;
  }
  input.clear();
  for (const std::string& line : lines) input += line;
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
    for (std::uint64_t m = 0; m < mutations; ++m) mutate(input, rng);
    obs::TraceReadOptions options;
    options.tolerate_truncated_tail = rng.below(2) == 0;
    obs::TraceStream stream(options);
    try {
      for (std::size_t at = 0; at < input.size();) {
        const std::size_t chunk = 1 + rng.below(256);
        stream.feed(std::string_view(input).substr(at, chunk));
        at += chunk;
      }
      stream.finish();
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

}  // namespace
