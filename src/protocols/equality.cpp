#include "protocols/equality.hpp"

#include <algorithm>

#include "bigint/modular.hpp"
#include "util/require.hpp"

namespace ccmx::proto {

using comm::Agent;
using comm::AgentView;
using comm::BitVec;
using comm::Channel;
using comm::Partition;

Partition equality_partition(std::size_t s) {
  Partition pi(2 * s);
  for (std::size_t i = s; i < 2 * s; ++i) pi.assign(i, Agent::kOne);
  return pi;
}

BitVec equality_input(const BitVec& x, const BitVec& y) {
  CCMX_REQUIRE(x.size() == y.size(), "EQ halves must have equal length");
  BitVec input(0);
  for (std::size_t i = 0; i < x.size(); ++i) input.push_back(x.get(i));
  for (std::size_t i = 0; i < y.size(); ++i) input.push_back(y.get(i));
  return input;
}

bool EqualitySendAll::run(const AgentView& agent0, const AgentView& agent1,
                          Channel& channel) const {
  BitVec payload(0);
  for (std::size_t i = 0; i < s_; ++i) payload.push_back(agent0.get(i));
  const BitVec& received = channel.send(Agent::kZero, std::move(payload));
  bool equal = true;
  for (std::size_t i = 0; i < s_; ++i) {
    if (received.get(i) != agent1.get(s_ + i)) {
      equal = false;
      break;
    }
  }
  return channel.send_bit(Agent::kOne, equal);
}

EqualityFingerprint::EqualityFingerprint(std::size_t s, unsigned prime_bits,
                                         std::uint64_t seed)
    : s_(s), prime_bits_(prime_bits), coins_(seed) {
  CCMX_REQUIRE(prime_bits >= 2 && prime_bits <= num::kZpBits,
               "prime width out of range");
}

namespace {

/// The s bits of `view` from `first`, read as an integer (bit i weighs
/// 2^i), mod p: Horner over 64-bit words, most significant first.
std::uint64_t residue_of_bits(const AgentView& view, std::size_t first,
                              std::size_t s, const num::Zp& field) {
  std::uint64_t acc = 0;
  for (std::size_t word = (s + 63) / 64; word-- > 0;) {
    const std::size_t lo = 64 * word;
    acc = field.horner(acc, view.read_uint(first + lo, std::min<std::size_t>(
                                                           64, s - lo)));
  }
  return acc;
}

}  // namespace

bool EqualityFingerprint::run(const AgentView& agent0, const AgentView& agent1,
                              Channel& channel) const {
  const num::Zp field(num::random_prime(prime_bits_, coins_));
  BitVec payload(0);
  payload.append_uint(residue_of_bits(agent0, 0, s_, field), prime_bits_);
  const BitVec& received = channel.send(Agent::kZero, std::move(payload));

  const bool equal = received.read_uint(0, prime_bits_) ==
                     residue_of_bits(agent1, s_, s_, field);
  return channel.send_bit(Agent::kOne, equal);
}

}  // namespace ccmx::proto
