// The two-party model: bit vectors, layouts, partitions, channels, views.
#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "comm/bounds.hpp"
#include "comm/channel.hpp"
#include "comm/partition.hpp"
#include "util/rng.hpp"

namespace {

using namespace ccmx::comm;
using ccmx::la::IntMatrix;
using ccmx::num::BigInt;
using ccmx::util::Xoshiro256;

TEST(BitVec, SetGetPushRead) {
  BitVec v(10);
  EXPECT_EQ(v.size(), 10u);
  EXPECT_FALSE(v.get(3));
  v.set(3, true);
  EXPECT_TRUE(v.get(3));
  v.set(3, false);
  EXPECT_FALSE(v.get(3));
  v.push_back(true);
  EXPECT_EQ(v.size(), 11u);
  EXPECT_TRUE(v.get(10));
  EXPECT_THROW((void)v.get(11), ccmx::util::contract_error);
}

TEST(BitVec, AppendReadUintRoundTrip) {
  BitVec v(0);
  v.append_uint(0xdeadbeef, 32);
  v.append_uint(0x3, 2);
  EXPECT_EQ(v.size(), 34u);
  EXPECT_EQ(v.read_uint(0, 32), 0xdeadbeefull);
  EXPECT_EQ(v.read_uint(32, 2), 3ull);
  EXPECT_EQ(BitVec::from_uint(0b1011, 4).read_uint(0, 4), 0b1011ull);
}

TEST(BitVec, WordAppendAndReadMatchBitByBit) {
  // Values of every width land at every offset mod 64, so appends and reads
  // cross word boundaries; each must agree with the single-bit accessors.
  Xoshiro256 rng(3);
  BitVec v(0);
  std::vector<std::pair<std::uint64_t, std::size_t>> written;
  for (int step = 0; step < 400; ++step) {
    const std::size_t width = rng.below(65);
    const std::uint64_t value = rng();
    written.emplace_back(value, width);
    v.append_uint(value, width);
  }
  std::size_t pos = 0;
  for (const auto& [value, width] : written) {
    std::uint64_t bitwise = 0;
    for (std::size_t b = 0; b < width; ++b) {
      if (v.get(pos + b)) bitwise |= std::uint64_t{1} << b;
    }
    const std::uint64_t low =
        width == 64 ? value : value & ((std::uint64_t{1} << width) - 1);
    EXPECT_EQ(bitwise, low) << "width " << width << " at " << pos;
    EXPECT_EQ(v.read_uint(pos, width), low) << "width " << width;
    pos += width;
  }
  EXPECT_EQ(v.size(), pos);
  EXPECT_THROW((void)v.read_uint(pos - 1, 2), ccmx::util::contract_error);
}

TEST(BitVec, PopcountAcrossWords) {
  BitVec v(130);
  v.set(0, true);
  v.set(64, true);
  v.set(129, true);
  EXPECT_EQ(v.popcount(), 3u);
}

TEST(Layout, EncodeDecodeRoundTrip) {
  Xoshiro256 rng(1);
  const MatrixBitLayout layout(3, 4, 5);
  EXPECT_EQ(layout.total_bits(), 60u);
  const IntMatrix m = IntMatrix::generate(3, 4, [&](std::size_t, std::size_t) {
    return BigInt(static_cast<std::int64_t>(rng.below(32)));
  });
  EXPECT_EQ(layout.decode(layout.encode(m)), m);
}

TEST(Layout, RejectsOverwideEntries) {
  const MatrixBitLayout layout(1, 1, 3);
  IntMatrix m(1, 1);
  m(0, 0) = BigInt(8);  // needs 4 bits
  EXPECT_THROW((void)layout.encode(m), ccmx::util::contract_error);
}

TEST(Partition, Pi0SplitsColumns) {
  const MatrixBitLayout layout(4, 4, 3);
  const Partition pi = Partition::pi0(layout);
  EXPECT_TRUE(pi.is_even());
  EXPECT_EQ(pi.bits_of(Agent::kZero), 24u);
  for (std::size_t i = 0; i < 4; ++i) {
    for (unsigned b = 0; b < 3; ++b) {
      EXPECT_EQ(pi.owner(layout.bit_index(i, 0, b)), Agent::kZero);
      EXPECT_EQ(pi.owner(layout.bit_index(i, 3, b)), Agent::kOne);
    }
  }
}

TEST(Partition, RandomEvenIsEven) {
  Xoshiro256 rng(2);
  for (const std::size_t bits : {10u, 11u, 64u, 100u}) {
    const Partition pi = Partition::random_even(bits, rng);
    EXPECT_TRUE(pi.is_even()) << bits;
    EXPECT_EQ(pi.bits_of(Agent::kZero), bits / 2);
  }
}

TEST(Partition, PermutedMovesOwnership) {
  const MatrixBitLayout layout(2, 2, 1);
  Partition pi(layout.total_bits());
  // Only cell (0,0) belongs to agent 1.
  pi.assign(layout.bit_index(0, 0, 0), Agent::kOne);
  const Partition swapped = pi.permuted(layout, {1, 0}, {1, 0});
  EXPECT_EQ(swapped.owner(layout.bit_index(1, 1, 0)), Agent::kOne);
  EXPECT_EQ(swapped.owner(layout.bit_index(0, 0, 0)), Agent::kZero);
  EXPECT_EQ(swapped.bits_of(Agent::kOne), 1u);
}

TEST(AgentView, EnforcesOwnership) {
  const MatrixBitLayout layout(2, 2, 1);
  const Partition pi = Partition::pi0(layout);
  BitVec input(layout.total_bits());
  input.set(layout.bit_index(0, 0, 0), true);
  const AgentView agent0(Agent::kZero, input, pi);
  const AgentView agent1(Agent::kOne, input, pi);
  EXPECT_TRUE(agent0.get(layout.bit_index(0, 0, 0)));
  EXPECT_THROW((void)agent1.get(layout.bit_index(0, 0, 0)),
               ccmx::util::contract_error);
  EXPECT_THROW((void)agent0.get(layout.bit_index(0, 1, 0)),
               ccmx::util::contract_error);
  EXPECT_EQ(agent0.owned_indices().size(), 2u);
}

TEST(AgentView, EntryReadsWholeEntriesAndRefusesSplitOnes) {
  const MatrixBitLayout layout(2, 4, 20);
  Partition pi = Partition::pi0(layout);
  const IntMatrix m{{1, 2, 3, 4}, {5, 6, 7, 1048575}};
  const BitVec input = layout.encode(m);
  {
    const AgentView agent0(Agent::kZero, input, pi);
    const AgentView agent1(Agent::kOne, input, pi);
    EXPECT_EQ(agent0.entry(layout, 1, 1), std::optional<std::uint64_t>(6));
    EXPECT_EQ(agent0.entry(layout, 1, 3), std::nullopt);
    EXPECT_EQ(agent1.entry(layout, 1, 3),
              std::optional<std::uint64_t>(1048575));
    EXPECT_EQ(agent1.entry(layout, 0, 0), std::nullopt);
  }
  pi.assign(layout.bit_index(1, 2, 19), Agent::kZero);  // split entry (1, 2)
  const AgentView agent0(Agent::kZero, input, pi);
  const AgentView agent1(Agent::kOne, input, pi);
  EXPECT_THROW((void)agent0.entry(layout, 1, 2), ccmx::util::contract_error);
  EXPECT_THROW((void)agent1.entry(layout, 1, 2), ccmx::util::contract_error);
  EXPECT_EQ(agent1.entry(layout, 1, 3),
            std::optional<std::uint64_t>(1048575));
  const MatrixBitLayout other(4, 2, 20);  // same size, other shape: allowed
  EXPECT_EQ(agent0.entry(other, 0, 0), std::optional<std::uint64_t>(1));
  EXPECT_THROW((void)agent0.entry(MatrixBitLayout(2, 4, 5), 0, 0),
               ccmx::util::contract_error);
}

TEST(Channel, CountsBitsAndRounds) {
  Channel ch;
  BitVec msg(0);
  msg.append_uint(0b101, 3);
  ch.send(Agent::kZero, msg);
  ch.send_bit(Agent::kOne, true);
  EXPECT_EQ(ch.bits_sent(), 4u);
  EXPECT_EQ(ch.bits_sent_by(Agent::kZero), 3u);
  EXPECT_EQ(ch.bits_sent_by(Agent::kOne), 1u);
  EXPECT_EQ(ch.rounds(), 2u);
  EXPECT_EQ(ch.messages(), 2u);
  EXPECT_EQ(ch.transcript()[0].payload.read_uint(0, 3), 0b101u);
}

TEST(Channel, ConsecutiveSendsBySameAgentAreOneRound) {
  Channel ch;
  EXPECT_EQ(ch.rounds(), 0u);
  ch.send_bit(Agent::kZero, true);
  ch.send_bit(Agent::kZero, false);  // same speaker: still round 1
  EXPECT_EQ(ch.rounds(), 1u);
  EXPECT_EQ(ch.messages(), 2u);
  ch.send_bit(Agent::kOne, true);  // alternation opens round 2
  ch.send_bit(Agent::kOne, true);
  ch.send_bit(Agent::kZero, false);  // round 3
  EXPECT_EQ(ch.rounds(), 3u);
  EXPECT_EQ(ch.messages(), 5u);
  EXPECT_EQ(ch.bits_sent(), 5u);
}

TEST(Bounds, TrivialUpperBound) {
  EXPECT_EQ(trivial_upper_bound(10, 20), 11u);
  EXPECT_EQ(trivial_upper_bound(20, 10), 11u);
}

}  // namespace
