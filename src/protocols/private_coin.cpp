#include "protocols/private_coin.hpp"

#include "bigint/modular.hpp"
#include "linalg/fp.hpp"
#include "protocols/residue.hpp"
#include "util/require.hpp"

namespace ccmx::proto {

using comm::Agent;
using comm::AgentView;
using comm::BitVec;
using comm::Channel;

PrivateCoinSingularity::PrivateCoinSingularity(comm::MatrixBitLayout layout,
                                               unsigned prime_bits,
                                               std::size_t table_size,
                                               std::uint64_t table_seed,
                                               std::uint64_t private_seed)
    : layout_(layout), prime_bits_(prime_bits),
      private_coins_(private_seed) {
  CCMX_REQUIRE(prime_bits >= 2 && prime_bits <= num::kZpBits,
               "prime width out of range");
  CCMX_REQUIRE(table_size >= 2, "table needs at least two primes");
  util::Xoshiro256 table_rng(table_seed);
  table_.reserve(table_size);
  for (std::size_t i = 0; i < table_size; ++i) {
    table_.push_back(num::random_prime(prime_bits, table_rng));
  }
  index_bits_ = 1;
  while ((std::size_t{1} << index_bits_) < table_size) ++index_bits_;
}

bool PrivateCoinSingularity::run(const AgentView& agent0,
                                 const AgentView& agent1,
                                 Channel& channel) const {
  // Agent 0 draws the prime index with PRIVATE coins and announces it in a
  // header ahead of the residues — the only overhead vs the public-coin
  // protocol.
  const std::size_t index = private_coins_.below(table_.size());
  BitVec header(0);
  header.append_uint(index, index_bits_);
  const BitVec& received = channel.send(
      Agent::kZero, residue_message(agent0, layout_, table_[index],
                                    prime_bits_, std::move(header)));

  // Agent 1 reads the announced index, looks the prime up in the shared
  // table, and completes the matrix.
  const std::uint64_t announced = received.read_uint(0, index_bits_);
  CCMX_REQUIRE(announced < table_.size(), "index out of table range");
  const std::uint64_t p = table_[static_cast<std::size_t>(announced)];
  const la::ModMatrix m =
      residue_matrix(agent1, layout_, received, index_bits_, p, prime_bits_);
  return channel.send_bit(Agent::kOne, la::det_mod_p(m, p) == 0);
}

}  // namespace ccmx::proto
