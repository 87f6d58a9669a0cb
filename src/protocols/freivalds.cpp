#include "protocols/freivalds.hpp"

#include <optional>

#include "bigint/modular.hpp"
#include "util/require.hpp"

namespace ccmx::proto {

using comm::Agent;
using comm::AgentView;
using comm::BitVec;
using comm::Channel;
using comm::MatrixBitLayout;
using comm::Partition;

MatrixBitLayout product_layout(std::size_t n, unsigned k) {
  return MatrixBitLayout(3 * n, n, k);
}

Partition product_partition(std::size_t n, unsigned k) {
  const MatrixBitLayout layout = product_layout(n, k);
  Partition pi(layout.total_bits());
  for (std::size_t i = 2 * n; i < 3 * n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (unsigned b = 0; b < k; ++b) {
        pi.assign(layout.bit_index(i, j, b), Agent::kOne);
      }
    }
  }
  return pi;
}

BitVec product_input(const la::IntMatrix& a, const la::IntMatrix& b,
                     const la::IntMatrix& c, unsigned k) {
  const std::size_t n = a.rows();
  CCMX_REQUIRE(a.is_square() && b.is_square() && c.is_square() &&
                   b.rows() == n && c.rows() == n,
               "product input needs three n x n matrices");
  la::IntMatrix stacked(3 * n, n);
  stacked.set_block(0, 0, a);
  stacked.set_block(n, 0, b);
  stacked.set_block(2 * n, 0, c);
  return product_layout(n, k).encode(stacked);
}

namespace {

/// Entry (i, j) of the stacked input; under product_partition `view`'s
/// agent owns every entry its caller reads.
std::uint64_t stacked_entry(const AgentView& view,
                            const MatrixBitLayout& layout, std::size_t i,
                            std::size_t j) {
  const std::optional<std::uint64_t> value = view.entry(layout, i, j);
  CCMX_REQUIRE(value.has_value(), "product protocols need product_partition");
  return *value;
}

/// M v over Z_p, for M the n x n block of rows [row0, row0 + n) and v
/// reduced mod p.
std::vector<std::uint64_t> block_times(const AgentView& view,
                                       const MatrixBitLayout& layout,
                                       std::size_t row0,
                                       const std::vector<std::uint64_t>& v,
                                       const num::Zp& field) {
  std::vector<num::Zp::Fixed> w(v.size());
  for (std::size_t j = 0; j < v.size(); ++j) w[j] = field.fixed(v[j]);
  std::vector<std::uint64_t> out(v.size(), 0);
  for (std::size_t i = 0; i < v.size(); ++i) {
    for (std::size_t j = 0; j < v.size(); ++j) {
      out[i] = field.add(
          out[i], field.mul(stacked_entry(view, layout, row0 + i, j), w[j]));
    }
  }
  return out;
}

}  // namespace

FreivaldsProtocol::FreivaldsProtocol(std::size_t n, unsigned k,
                                     unsigned prime_bits, unsigned repetitions,
                                     std::uint64_t seed)
    : n_(n), k_(k), prime_bits_(prime_bits), repetitions_(repetitions),
      coins_(seed) {
  CCMX_REQUIRE(prime_bits >= 2 && prime_bits <= num::kZpBits,
               "prime width out of range");
  CCMX_REQUIRE(repetitions >= 1, "need at least one repetition");
  CCMX_REQUIRE(k >= 1 && k <= num::kZpBits, "entry width out of range");
}

bool FreivaldsProtocol::run(const AgentView& agent0, const AgentView& agent1,
                            Channel& channel) const {
  const MatrixBitLayout layout = product_layout(n_, k_);
  bool all_accept = true;
  for (unsigned rep = 0; rep < repetitions_; ++rep) {
    const num::Zp field(num::random_prime(prime_bits_, coins_));
    std::vector<std::uint64_t> r(n_);
    for (auto& ri : r) ri = coins_.below(field.p());

    // Agent 0: z = A (B r) mod p.
    const auto br = block_times(agent0, layout, n_, r, field);
    BitVec payload(0);
    for (const std::uint64_t z : block_times(agent0, layout, 0, br, field)) {
      payload.append_uint(z, prime_bits_);
    }
    const BitVec& received = channel.send(Agent::kZero, std::move(payload));

    // Agent 1: compare with C r mod p.
    const auto cr = block_times(agent1, layout, 2 * n_, r, field);
    bool accept = true;
    for (std::size_t i = 0; i < n_ && accept; ++i) {
      accept = cr[i] == received.read_uint(i * prime_bits_, prime_bits_);
    }
    all_accept = channel.send_bit(Agent::kOne, accept) && all_accept;
    if (!all_accept) break;  // a single reject is conclusive (one-sided)
  }
  return all_accept;
}

bool ProductSendAll::run(const AgentView& agent0, const AgentView& agent1,
                         Channel& channel) const {
  const MatrixBitLayout layout = product_layout(n_, k_);
  // Agent 1 ships C verbatim (k n^2 bits).
  BitVec payload(0);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      payload.append_uint(stacked_entry(agent1, layout, 2 * n_ + i, j), k_);
    }
  }
  const BitVec& received = channel.send(Agent::kOne, std::move(payload));

  la::IntMatrix a(n_, n_), b(n_, n_), c(n_, n_);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      a(i, j) = num::BigInt(
          static_cast<std::int64_t>(stacked_entry(agent0, layout, i, j)));
      b(i, j) = num::BigInt(
          static_cast<std::int64_t>(stacked_entry(agent0, layout, n_ + i, j)));
      c(i, j) = num::BigInt(static_cast<std::int64_t>(
          received.read_uint((i * n_ + j) * k_, k_)));
    }
  }
  const bool equal = multiply_naive(a, b) == c;
  return channel.send_bit(Agent::kZero, equal);
}

}  // namespace ccmx::proto
