#include "protocols/send_half.hpp"

#include <utility>

#include "linalg/det.hpp"
#include "linalg/exact.hpp"
#include "linalg/rref.hpp"
#include "util/require.hpp"

namespace ccmx::proto {

using comm::Agent;
using comm::AgentView;
using comm::BitVec;
using comm::Channel;

SendHalfProtocol::SendHalfProtocol(comm::MatrixBitLayout layout,
                                   Predicate predicate, std::string name)
    : layout_(layout), predicate_(std::move(predicate)),
      name_(std::move(name)) {
  CCMX_REQUIRE(predicate_ != nullptr, "null predicate");
}

bool SendHalfProtocol::run(const AgentView& agent0, const AgentView& agent1,
                           Channel& channel) const {
  CCMX_REQUIRE(agent0.total_bits() == layout_.total_bits(),
               "input does not match the layout");
  // The partition is common knowledge; both agents agree on who ships.
  const auto idx0 = agent0.owned_indices();
  const auto idx1 = agent1.owned_indices();
  const bool zero_sends = idx0.size() <= idx1.size();
  const AgentView& sender = zero_sends ? agent0 : agent1;
  const AgentView& receiver = zero_sends ? agent1 : agent0;
  const auto& send_idx = zero_sends ? idx0 : idx1;

  BitVec payload(0);
  for (const std::size_t bit : send_idx) payload.push_back(sender.get(bit));
  const BitVec& received = channel.send(sender.who(), std::move(payload));

  // Receiver reconstructs the whole input: its own bits plus the payload,
  // whose order (increasing owned index of the sender) is public.
  BitVec full(layout_.total_bits());
  for (std::size_t i = 0; i < send_idx.size(); ++i) {
    full.set(send_idx[i], received.get(i));
  }
  for (const std::size_t bit : receiver.owned_indices()) {
    full.set(bit, receiver.get(bit));
  }
  const bool answer = predicate_(layout_.decode(full));
  // One bit back so both sides know the answer.
  return channel.send_bit(receiver.who(), answer);
}

SendHalfProtocol make_send_half_singularity(
    const comm::MatrixBitLayout& layout) {
  return SendHalfProtocol(
      layout, [](const la::IntMatrix& m) { return la::is_singular(m); },
      "send-half/singularity");
}

SendHalfProtocol make_send_half_full_rank(const comm::MatrixBitLayout& layout) {
  return SendHalfProtocol(
      layout,
      [](const la::IntMatrix& m) {
        return la::rank(m) == std::min(m.rows(), m.cols());
      },
      "send-half/full-rank");
}

SendHalfProtocol make_send_half_solvability(
    const comm::MatrixBitLayout& layout) {
  return SendHalfProtocol(
      layout,
      [](const la::IntMatrix& m) {
        CCMX_REQUIRE(m.cols() >= 2, "solvability needs [A | b]");
        return la::solvable(m.block(0, 0, m.rows(), m.cols() - 1),
                            m.col(m.cols() - 1));
      },
      "send-half/solvability");
}

}  // namespace ccmx::proto
