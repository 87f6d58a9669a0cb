// Seeded mutation fuzz for BigInt::from_string, with the trace fuzz's
// mutator (fuzz_mutate.hpp).  The seeds are numerals with signs, leading
// zeros, lengths at the edges of the parser's 18-digit chunks (17, 18, 19,
// 36, 37 digits) and long runs of one digit.  Every mutated input must
// either throw contract_error, or parse to the value of an independent
// digit-at-a-time parse and print back through to_string as its canonical
// numeral: no '+', no leading zeros, and "0" for every zero.  Both
// outcomes must occur.  Runs under the ASan+UBSan job like the rest of
// tier 1.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bigint/bigint.hpp"
#include "fuzz_mutate.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace {

using ccmx::num::BigInt;
using ccmx::util::Xoshiro256;

constexpr std::size_t kIterations = 100000;

/// Digits and signs, so overwrites mostly keep a numeral a numeral, and
/// a few bytes that never belong in one.
constexpr std::string_view kTokens = "0123456789+-0 .x";

/// The value of a numeral, one decimal digit at a time; nullopt where
/// from_string must refuse: empty, a bare sign, or a non-digit.
std::optional<BigInt> reference_parse(std::string_view text) {
  std::size_t pos = 0;
  if (!text.empty() && (text[0] == '+' || text[0] == '-')) pos = 1;
  if (pos == text.size()) return std::nullopt;
  BigInt value;
  for (std::size_t i = pos; i < text.size(); ++i) {
    if (text[i] < '0' || text[i] > '9') return std::nullopt;
    value = value * BigInt(10) + BigInt(text[i] - '0');
  }
  return text[0] == '-' ? -value : value;
}

/// The canonical form of a numeral reference_parse accepts, by string
/// edits alone.
std::string canonical(std::string_view text) {
  const bool negative = text[0] == '-';
  std::size_t pos = text[0] == '+' || negative ? 1 : 0;
  while (pos + 1 < text.size() && text[pos] == '0') ++pos;
  const std::string digits(text.substr(pos));
  return digits == "0" || !negative ? digits : "-" + digits;
}

std::vector<std::string> seeds(Xoshiro256& rng) {
  std::vector<std::string> out = {"0",
                                   "-0",
                                   "+0",
                                   "000",
                                   "-000123",
                                   "+42",
                                   "9223372036854775807",   // 2^63 - 1
                                   "-9223372036854775808",  // -2^63
                                   "18446744073709551616",  // 2^64
                                   std::string(37, '9'),
                                   "1" + std::string(36, '0'),
                                   std::string(40, '0') + "7",
                                   "-" + std::string(54, '9')};
  constexpr std::size_t kLengths[] = {1, 17, 18, 19, 36, 37, 55, 120};
  for (const std::size_t length : kLengths) {
    for (const char* prefix : {"", "-", "+", "00", "-0"}) {
      std::string numeral(prefix);
      for (std::size_t i = 0; i < length; ++i) {
        numeral += static_cast<char>('0' + rng.below(10));
      }
      out.push_back(numeral);
    }
  }
  return out;
}

TEST(BigIntFuzz, MutatedNumeralsParseExactlyOrThrowContractError) {
  Xoshiro256 rng(0xb161e7);
  const std::vector<std::string> seed_set = seeds(rng);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < kIterations; ++i) {
    std::string input = seed_set[rng.below(seed_set.size())];
    const std::uint64_t mutations = 1 + rng.below(4);
    for (std::uint64_t m = 0; m < mutations; ++m) {
      ccmx::fuzz::mutate(input, rng, kTokens);
    }
    const std::optional<BigInt> expected = reference_parse(input);
    BigInt got;
    try {
      got = BigInt::from_string(input);
    } catch (const ccmx::util::contract_error&) {
      ++rejected;
      ASSERT_FALSE(expected.has_value())
          << "iteration " << i << " refused \"" << input << '"';
      continue;
    }
    ++parsed;
    ASSERT_TRUE(expected.has_value())
        << "iteration " << i << " accepted \"" << input << '"';
    ASSERT_EQ(got, *expected) << "iteration " << i << " on \"" << input << '"';
    ASSERT_EQ(got.to_string(), canonical(input))
        << "iteration " << i << " on \"" << input << '"';
  }
  EXPECT_EQ(parsed + rejected, kIterations);
  // Both outcomes must be exercised, or the mutator is not fuzzing.
  EXPECT_GT(parsed, kIterations / 100);
  EXPECT_GT(rejected, kIterations / 100);
}

}  // namespace
