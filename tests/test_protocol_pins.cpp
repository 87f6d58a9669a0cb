// Transcript pins for the mod-p protocols: at fixed seeds, every message's
// sender, length and payload digest, plus the answer, bits, messages and
// rounds.  A change to the residue step that moves a coin draw, reorders the
// payload bits or alters the metered cost fails here, even when the answer
// happens to survive.  Entries are wider than the primes, so every shipped
// residue depends on the prime drawn.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "comm/channel.hpp"
#include "protocols/fingerprint.hpp"
#include "protocols/freivalds.hpp"
#include "protocols/private_coin.hpp"
#include "util/rng.hpp"

namespace {

using namespace ccmx::comm;
using namespace ccmx::proto;
using ccmx::la::IntMatrix;
using ccmx::num::BigInt;
using ccmx::util::Xoshiro256;

IntMatrix random_entries(std::size_t rows, std::size_t cols, unsigned k,
                         Xoshiro256& rng) {
  return IntMatrix::generate(rows, cols, [&](std::size_t, std::size_t) {
    return BigInt(
        static_cast<std::int64_t>(rng.below(std::uint64_t{1} << k)));
  });
}

/// Copies column `from` onto column `to`, making a square input singular
/// (and a bordered one rank deficient).
IntMatrix with_repeated_column(IntMatrix m, std::size_t from,
                               std::size_t to) {
  for (std::size_t i = 0; i < m.rows(); ++i) m(i, to) = m(i, from);
  return m;
}

/// Entry-aligned checkerboard: entry (i, j) goes to agent (i + j) mod 2, so
/// agent 0's entries interleave with agent 1's in row-major order.
Partition checkerboard(const MatrixBitLayout& layout) {
  Partition pi(layout.total_bits());
  for (std::size_t i = 0; i < layout.rows(); ++i) {
    for (std::size_t j = 0; j < layout.cols(); ++j) {
      for (unsigned b = 0; b < layout.entry_bits(); ++b) {
        pi.assign(layout.bit_index(i, j, b),
                  (i + j) % 2 == 0 ? Agent::kZero : Agent::kOne);
      }
    }
  }
  return pi;
}

/// "answer bits messages rounds | from:length:digest ..." for one run, the
/// digest being FNV-1a over the payload's bits in transmission order.
std::string transcript(const Protocol& protocol, const BitVec& input,
                       const Partition& pi) {
  const AgentView agent0(Agent::kZero, input, pi);
  const AgentView agent1(Agent::kOne, input, pi);
  Channel channel;
  const bool answer = protocol.run(agent0, agent1, channel);
  std::string out = std::to_string(answer ? 1 : 0) + " " +
                    std::to_string(channel.bits_sent()) + " " +
                    std::to_string(channel.messages()) + " " +
                    std::to_string(channel.rounds()) + " |";
  for (const Message& message : channel.transcript()) {
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    for (std::size_t b = 0; b < message.payload.size(); ++b) {
      digest ^= message.payload.get(b) ? 0x31u : 0x30u;
      digest *= 0x100000001b3ULL;
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(digest));
    out += " " + std::to_string(message.from == Agent::kZero ? 0 : 1) + ":" +
           std::to_string(message.payload.size()) + ":" + hex;
  }
  return out;
}

TEST(ProtocolPins, FingerprintTasksUnderPi0) {
  const MatrixBitLayout layout(6, 6, 24);
  const Partition pi = Partition::pi0(layout);
  Xoshiro256 rng(101);
  const IntMatrix dense = random_entries(6, 6, 24, rng);
  const IntMatrix singular = with_repeated_column(dense, 1, 4);
  const FingerprintTask tasks[] = {
      FingerprintTask::kSingularity, FingerprintTask::kFullRank,
      FingerprintTask::kSolvability, FingerprintTask::kRankAtMostHalf};
  const char* const expected[4][2] = {
      {"0 705 6 6 |"
       " 0:234:a310d4d1907f9ba5 1:1:af63ad4c86019caf"
       " 0:234:0b9be66122020dc9 1:1:af63ad4c86019caf"
       " 0:234:1e5bb77bbe09fbf6 1:1:af63ad4c86019caf",
       "1 705 6 6 |"
       " 0:234:eddfc548022702b1 1:1:af63ac4c86019afc"
       " 0:234:5afb563a17e002fe 1:1:af63ac4c86019afc"
       " 0:234:c1c3b30e4be5ba34 1:1:af63ac4c86019afc"},
      {"1 705 6 6 |"
       " 0:234:6d4eadea4801f113 1:1:af63ac4c86019afc"
       " 0:234:e7453f0c9c3384e7 1:1:af63ac4c86019afc"
       " 0:234:e57fcc0451be0d3f 1:1:af63ac4c86019afc",
       "0 705 6 6 |"
       " 0:234:5729aae94aaf4a02 1:1:af63ad4c86019caf"
       " 0:234:c648812dc7d2e3cd 1:1:af63ad4c86019caf"
       " 0:234:7509a4757fc667cd 1:1:af63ad4c86019caf"},
      {"0 705 6 6 |"
       " 0:234:1577a4c0c416fc42 1:1:af63ad4c86019caf"
       " 0:234:f67eff6538382999 1:1:af63ad4c86019caf"
       " 0:234:89d307c945bc213a 1:1:af63ad4c86019caf",
       "0 705 6 6 |"
       " 0:234:9293b99a65cd1b5a 1:1:af63ad4c86019caf"
       " 0:234:c7a1d831fd50fce1 1:1:af63ad4c86019caf"
       " 0:234:266207ac1c32a90a 1:1:af63ad4c86019caf"},
      {"0 705 6 6 |"
       " 0:234:d29a44bff1b71c15 1:1:af63ad4c86019caf"
       " 0:234:67b0da0a8419fd5b 1:1:af63ad4c86019caf"
       " 0:234:3d6b5c82a678d8b8 1:1:af63ad4c86019caf",
       "0 705 6 6 |"
       " 0:234:418ec510fd8f5ba1 1:1:af63ad4c86019caf"
       " 0:234:5b48628c78e44e1a 1:1:af63ad4c86019caf"
       " 0:234:b2a169765197b6fc 1:1:af63ad4c86019caf"},
  };
  for (std::size_t t = 0; t < 4; ++t) {
    const FingerprintProtocol protocol(layout, tasks[t], 13, 3, 7 + t);
    EXPECT_EQ(transcript(protocol, layout.encode(dense), pi), expected[t][0])
        << protocol.name() << " dense";
    EXPECT_EQ(transcript(protocol, layout.encode(singular), pi),
              expected[t][1])
        << protocol.name() << " singular";
  }
}

TEST(ProtocolPins, FingerprintSolvabilityOnBorderedInput) {
  // [A | b] with A 5 x 5: solvable when A is nonsingular, and unsolvable
  // (with high probability) once A repeats a column and b is random.
  const MatrixBitLayout layout(5, 6, 40);
  const Partition pi = Partition::pi0(layout);
  Xoshiro256 rng(202);
  const IntMatrix solvable = random_entries(5, 6, 40, rng);
  const IntMatrix deficient = with_repeated_column(solvable, 0, 3);
  const FingerprintProtocol protocol(layout, FingerprintTask::kSolvability,
                                     17, 2, 23);
  EXPECT_EQ(transcript(protocol, layout.encode(solvable), pi),
            "1 512 4 4 |"
            " 0:255:f72a0339cf44e462 1:1:af63ac4c86019afc"
            " 0:255:9c631cc34478bd6e 1:1:af63ac4c86019afc");
  EXPECT_EQ(transcript(protocol, layout.encode(deficient), pi),
            "0 512 4 4 |"
            " 0:255:6489f60a6f4fc952 1:1:af63ad4c86019caf"
            " 0:255:1463a068e779f76d 1:1:af63ad4c86019caf");
}

TEST(ProtocolPins, FingerprintUnderInterleavedPartition) {
  const MatrixBitLayout layout(5, 5, 20);
  const Partition pi = checkerboard(layout);
  Xoshiro256 rng(303);
  const IntMatrix m = random_entries(5, 5, 20, rng);
  const FingerprintProtocol protocol(layout, FingerprintTask::kSingularity,
                                     11, 2, 31);
  EXPECT_EQ(transcript(protocol, layout.encode(m), pi),
            "0 288 4 4 |"
            " 0:143:d43b8b2aef0930a5 1:1:af63ad4c86019caf"
            " 0:143:d59197724236f9b9 1:1:af63ad4c86019caf");
}

TEST(ProtocolPins, RankThreshold) {
  const MatrixBitLayout layout(6, 6, 16);
  const Partition pi = Partition::pi0(layout);
  Xoshiro256 rng(404);
  const IntMatrix m =
      with_repeated_column(with_repeated_column(random_entries(6, 6, 16, rng),
                                                0, 5),
                           1, 4);
  const RankThresholdProtocol reached(layout, 3, 12, 3, 41);
  const RankThresholdProtocol missed(layout, 6, 12, 3, 43);
  EXPECT_EQ(transcript(reached, layout.encode(m), pi),
            "1 651 6 6 |"
            " 0:216:16f427b409edb01c 1:1:af63ac4c86019afc"
            " 0:216:0ca7a9e0f53b4912 1:1:af63ac4c86019afc"
            " 0:216:9f45f4e80777e5fc 1:1:af63ac4c86019afc");
  EXPECT_EQ(transcript(missed, layout.encode(m), pi),
            "0 651 6 6 |"
            " 0:216:272c21d802143bb6 1:1:af63ad4c86019caf"
            " 0:216:1ecc1b0366744d56 1:1:af63ad4c86019caf"
            " 0:216:1edc9114bea1a604 1:1:af63ad4c86019caf");
}

TEST(ProtocolPins, PrivateCoinSingularity) {
  const MatrixBitLayout layout(6, 6, 30);
  Xoshiro256 rng(505);
  const IntMatrix dense = random_entries(6, 6, 30, rng);
  const IntMatrix singular = with_repeated_column(dense, 2, 5);
  const PrivateCoinSingularity protocol(layout, 14, 64, 51, 53);
  const Partition pi = Partition::pi0(layout);
  EXPECT_EQ(transcript(protocol, layout.encode(dense), pi),
            "0 259 2 2 |"
            " 0:258:0545b6c23235edde 1:1:af63ad4c86019caf");
  EXPECT_EQ(transcript(protocol, layout.encode(singular), pi),
            "1 259 2 2 |"
            " 0:258:1e8e8eedb735fda2 1:1:af63ac4c86019afc");
  EXPECT_EQ(transcript(protocol, layout.encode(dense), checkerboard(layout)),
            "0 259 2 2 |"
            " 0:258:301150a4b51e4c9a 1:1:af63ad4c86019caf");
}

TEST(ProtocolPins, FreivaldsAndSendAll) {
  const std::size_t n = 5;
  const unsigned k = 6;
  Xoshiro256 rng(606);
  const IntMatrix a = random_entries(n, n, 2, rng);
  const IntMatrix b = random_entries(n, n, 2, rng);
  const IntMatrix c = multiply_naive(a, b);
  IntMatrix corrupted = c;
  corrupted(2, 3) += BigInt(1);
  const Partition pi = product_partition(n, k);
  const FreivaldsProtocol freivalds(n, k, 20, 3, 61);
  EXPECT_EQ(transcript(freivalds, product_input(a, b, c, k), pi),
            "1 303 6 6 |"
            " 0:100:ad1aef5ffe5c6433 1:1:af63ac4c86019afc"
            " 0:100:0bffd0e06d78009a 1:1:af63ac4c86019afc"
            " 0:100:1a79b0d71919bc2a 1:1:af63ac4c86019afc");
  EXPECT_EQ(transcript(freivalds, product_input(a, b, corrupted, k), pi),
            "0 101 2 2 |"
            " 0:100:e9228feab7b031c6 1:1:af63ad4c86019caf");
  const ProductSendAll send_all(n, k);
  EXPECT_EQ(transcript(send_all, product_input(a, b, c, k), pi),
            "1 151 2 2 |"
            " 1:150:11596fca5e21d16a 0:1:af63ac4c86019afc");
  EXPECT_EQ(transcript(send_all, product_input(a, b, corrupted, k), pi),
            "0 151 2 2 |"
            " 1:150:2f7e847591cce65f 0:1:af63ad4c86019caf");
}

}  // namespace
