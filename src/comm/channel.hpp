// The bit-metered channel between the two agents, and the protocol
// interface.
//
// A protocol implementation receives one AgentView per agent; a view only
// exposes the bits its partition assigned to that agent (reading a foreign
// bit throws), so any cross-agent information flow is forced through
// Channel::send, where it is counted.  This makes the measured cost of a
// protocol an honest upper bound on its communication complexity under the
// given partition.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "comm/bitvec.hpp"
#include "comm/partition.hpp"

namespace ccmx::comm {

/// Read-only window onto one agent's share of the input.
class AgentView {
 public:
  AgentView(Agent who, const BitVec& input, const Partition& partition)
      : who_(who), input_(&input), partition_(&partition) {
    CCMX_REQUIRE(input.size() == partition.total_bits(),
                 "input / partition size mismatch");
  }

  [[nodiscard]] Agent who() const noexcept { return who_; }
  [[nodiscard]] std::size_t total_bits() const noexcept {
    return input_->size();
  }
  [[nodiscard]] bool owns(std::size_t bit) const {
    return partition_->owner(bit) == who_;
  }
  /// Reads an owned bit; throws on foreign bits — the locality guard.
  [[nodiscard]] bool get(std::size_t bit) const {
    CCMX_REQUIRE(owns(bit), "agent read a bit it does not own");
    return input_->get(bit);
  }
  /// Reads `count` (1 to 64) owned bits from `first`, LSB first, under the
  /// same guard: throws unless this agent owns every one of them.
  [[nodiscard]] std::uint64_t read_uint(std::size_t first,
                                        std::size_t count) const {
    CCMX_REQUIRE(count <= 64 && partition_->range_owner(first, count) == who_,
                 "agent read a bit it does not own");
    return input_->read_uint(first, count);
  }
  [[nodiscard]] std::vector<std::size_t> owned_indices() const {
    return partition_->indices_of(who_);
  }
  /// Entry (i, j) of `layout` as this agent reads it: the k-bit value when
  /// the agent owns all of the entry's bits, nullopt when the other agent
  /// owns them all.  Throws when the partition splits the entry.
  [[nodiscard]] std::optional<std::uint64_t> entry(
      const MatrixBitLayout& layout, std::size_t i, std::size_t j) const {
    CCMX_REQUIRE(layout.total_bits() == input_->size(),
                 "input does not match the layout");
    const std::size_t first = layout.bit_index(i, j, 0);
    if (partition_->range_owner(first, layout.entry_bits()) != who_) {
      return std::nullopt;
    }
    return input_->read_uint(first, layout.entry_bits());
  }
  [[nodiscard]] const Partition& partition() const noexcept {
    return *partition_;
  }

 private:
  Agent who_;
  const BitVec* input_;
  const Partition* partition_;
};

struct Message {
  Agent from;
  BitVec payload;
};

/// Counts every bit the protocol moves, in either direction.
class Channel {
 public:
  /// Delivers `payload` from `from` to the other agent and returns it.
  /// When tracing is enabled (obs::enabled), also bumps the comm.*
  /// counters and streams a per-message JSONL event.
  const BitVec& send(Agent from, BitVec payload);

  /// Single-bit convenience.
  bool send_bit(Agent from, bool bit) {
    BitVec payload(0);
    payload.push_back(bit);
    return send(from, std::move(payload)).get(0);
  }

  [[nodiscard]] std::size_t bits_sent() const noexcept {
    return bits_[0] + bits_[1];
  }
  [[nodiscard]] std::size_t bits_sent_by(Agent a) const noexcept {
    return bits_[static_cast<std::size_t>(a)];
  }
  /// Number of messages on the transcript (one per send call).
  [[nodiscard]] std::size_t messages() const noexcept {
    return transcript_.size();
  }
  /// Number of rounds: consecutive sends by the same agent count as one
  /// round; a round ends when the speaker alternates.
  [[nodiscard]] std::size_t rounds() const noexcept { return rounds_; }
  [[nodiscard]] const std::vector<Message>& transcript() const noexcept {
    return transcript_;
  }

 private:
  std::size_t bits_[2] = {0, 0};
  std::size_t rounds_ = 0;
  std::vector<Message> transcript_;
  // Process-unique id stamped into JSONL trace events ("ch") so a trace
  // holding several protocol executions can be demultiplexed; assigned
  // lazily on the first traced send (0 = never traced).
  mutable std::uint64_t trace_id_ = 0;
};

/// A two-party decision protocol.  `run` must derive its answer only from
/// the two views and the channel traffic.
class Protocol {
 public:
  virtual ~Protocol() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Executes the protocol; the boolean answer must be known to the agent
  /// responsible for the output (we require it to be explicit on the
  /// channel or derivable by agent 1).
  [[nodiscard]] virtual bool run(const AgentView& agent0,
                                 const AgentView& agent1,
                                 Channel& channel) const = 0;
};

struct ProtocolOutcome {
  bool answer = false;
  std::size_t bits = 0;
  std::size_t rounds = 0;    // speaker alternations (Channel::rounds)
  std::size_t messages = 0;  // send calls (Channel::messages)
};

/// Harness: splits `input` by `partition` and runs the protocol.
[[nodiscard]] ProtocolOutcome execute(const Protocol& protocol,
                                      const BitVec& input,
                                      const Partition& partition);

}  // namespace ccmx::comm
