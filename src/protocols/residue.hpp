// The residue step of the mod-p fingerprint protocols (Leighton's upper
// bound, Section 1), internal to fingerprint.cpp and private_coin.cpp:
// agent 0 ships each entry it owns reduced mod a prime p, and agent 1
// rebuilds the whole matrix over Z_p.
//
// The message is an optional header, then one prime_bits-wide residue per
// agent-0 entry in row-major order.  The order is public and the partition
// is common knowledge, so agent 1 places every residue without an index.
// Both sides need an entry-aligned partition; a split entry throws
// contract_error.
#pragma once

#include <cstdint>

#include "bigint/modular.hpp"
#include "comm/channel.hpp"
#include "linalg/convert.hpp"
#include "util/require.hpp"

namespace ccmx::proto {

/// Agent 0's message: `header`, then entry mod `prime` for every entry
/// agent 0 owns, `prime_bits` bits each.
[[nodiscard]] inline comm::BitVec residue_message(
    const comm::AgentView& agent0, const comm::MatrixBitLayout& layout,
    std::uint64_t prime, unsigned prime_bits,
    comm::BitVec header = comm::BitVec(0)) {
  const num::Zp field(prime);
  for (std::size_t i = 0; i < layout.rows(); ++i) {
    for (std::size_t j = 0; j < layout.cols(); ++j) {
      if (const auto value = agent0.entry(layout, i, j)) {
        header.append_uint(field.reduce(*value), prime_bits);
      }
    }
  }
  return header;
}

/// Agent 1's matrix over Z_p: agent 0's residues from `message` past its
/// first `header_bits` bits, and agent 1's own entries reduced mod `prime`,
/// the prime agent 1 knows (the public coin, or the table prime the header
/// names).
[[nodiscard]] inline la::ModMatrix residue_matrix(
    const comm::AgentView& agent1, const comm::MatrixBitLayout& layout,
    const comm::BitVec& message, std::size_t header_bits, std::uint64_t prime,
    unsigned prime_bits) {
  const num::Zp field(prime);
  la::ModMatrix m(layout.rows(), layout.cols());
  std::size_t pos = header_bits;
  for (std::size_t i = 0; i < layout.rows(); ++i) {
    for (std::size_t j = 0; j < layout.cols(); ++j) {
      if (const auto value = agent1.entry(layout, i, j)) {
        m(i, j) = field.reduce(*value);
      } else {
        m(i, j) = message.read_uint(pos, prime_bits);
        pos += prime_bits;
      }
    }
  }
  CCMX_REQUIRE(pos == message.size(), "residue message length mismatch");
  return m;
}

}  // namespace ccmx::proto
