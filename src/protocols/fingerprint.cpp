#include "protocols/fingerprint.hpp"

#include <cmath>

#include "bigint/modular.hpp"
#include "linalg/det.hpp"
#include "linalg/fp.hpp"
#include "protocols/residue.hpp"
#include "util/require.hpp"

namespace ccmx::proto {

using comm::Agent;
using comm::AgentView;
using comm::Channel;

FingerprintProtocol::FingerprintProtocol(comm::MatrixBitLayout layout,
                                         FingerprintTask task,
                                         unsigned prime_bits,
                                         unsigned repetitions,
                                         std::uint64_t seed)
    : layout_(layout), task_(task), prime_bits_(prime_bits),
      repetitions_(repetitions), coins_(seed) {
  CCMX_REQUIRE(prime_bits >= 2 && prime_bits <= num::kZpBits,
               "prime width out of range");
  CCMX_REQUIRE(repetitions >= 1, "need at least one repetition");
  CCMX_REQUIRE(layout.entry_bits() <= num::kZpBits,
               "entries must fit a machine word");
}

std::string FingerprintProtocol::name() const {
  switch (task_) {
    case FingerprintTask::kSingularity: return "fingerprint/singularity";
    case FingerprintTask::kFullRank: return "fingerprint/full-rank";
    case FingerprintTask::kSolvability: return "fingerprint/solvability";
    case FingerprintTask::kRankAtMostHalf: return "fingerprint/rank<=n/2";
  }
  return "fingerprint/?";
}

bool FingerprintProtocol::run(const AgentView& agent0, const AgentView& agent1,
                              Channel& channel) const {
  bool combined = true;  // AND over repetitions (one-sided tasks)
  bool any_true = false; // OR (full rank)
  for (unsigned rep = 0; rep < repetitions_; ++rep) {
    const std::uint64_t prime = num::random_prime(prime_bits_, coins_);
    const bool answer = run_once(agent0, agent1, channel, prime);
    combined = combined && answer;
    any_true = any_true || answer;
  }
  return task_ == FingerprintTask::kFullRank ? any_true : combined;
}

bool FingerprintProtocol::run_once(const AgentView& agent0,
                                   const AgentView& agent1, Channel& channel,
                                   std::uint64_t prime) const {
  const comm::BitVec& received = channel.send(
      Agent::kZero, residue_message(agent0, layout_, prime, prime_bits_));
  const la::ModMatrix m =
      residue_matrix(agent1, layout_, received, 0, prime, prime_bits_);
  bool answer = false;
  switch (task_) {
    case FingerprintTask::kSingularity:
      answer = la::det_mod_p(m, prime) == 0;
      break;
    case FingerprintTask::kFullRank:
      answer = la::rank_mod_p(m, prime) == std::min(m.rows(), m.cols());
      break;
    case FingerprintTask::kSolvability:
      CCMX_REQUIRE(m.cols() >= 2, "solvability needs [A | b]");
      answer = la::solvable_mod_p(m, prime);
      break;
    case FingerprintTask::kRankAtMostHalf:
      answer = la::rank_mod_p(m, prime) <= m.rows() / 2;
      break;
  }
  return channel.send_bit(Agent::kOne, answer);
}

RankThresholdProtocol::RankThresholdProtocol(comm::MatrixBitLayout layout,
                                             std::size_t threshold,
                                             unsigned prime_bits,
                                             unsigned repetitions,
                                             std::uint64_t seed)
    : layout_(layout), threshold_(threshold), prime_bits_(prime_bits),
      repetitions_(repetitions), coins_(seed) {
  CCMX_REQUIRE(prime_bits >= 2 && prime_bits <= num::kZpBits,
               "prime width out of range");
  CCMX_REQUIRE(repetitions >= 1, "need at least one repetition");
  CCMX_REQUIRE(threshold <= std::min(layout.rows(), layout.cols()),
               "rank threshold out of range");
}

std::string RankThresholdProtocol::name() const {
  return "fingerprint/rank>=" + std::to_string(threshold_);
}

bool RankThresholdProtocol::run(const AgentView& agent0,
                                const AgentView& agent1,
                                Channel& channel) const {
  // rank mod p <= rank: a single sketch that reaches the threshold is a
  // certificate, so OR over repetitions.
  bool any = false;
  for (unsigned rep = 0; rep < repetitions_; ++rep) {
    const std::uint64_t prime = num::random_prime(prime_bits_, coins_);
    const comm::BitVec& received = channel.send(
        Agent::kZero, residue_message(agent0, layout_, prime, prime_bits_));
    const la::ModMatrix m =
        residue_matrix(agent1, layout_, received, 0, prime, prime_bits_);
    any = channel.send_bit(Agent::kOne,
                           la::rank_mod_p(m, prime) >= threshold_) ||
          any;
  }
  return any;
}

unsigned recommend_prime_bits(std::size_t n, unsigned k, double epsilon) {
  CCMX_REQUIRE(epsilon > 0.0 && epsilon < 1.0, "epsilon out of range");
  for (unsigned b = 3; b <= num::kZpBits; ++b) {
    if (singularity_error_bound(n, k, b) <= epsilon) return b;
  }
  return num::kZpBits;
}

double singularity_error_bound(std::size_t n, unsigned k,
                               unsigned prime_bits) {
  const auto det_bits = static_cast<double>(la::hadamard_det_bits(n, k));
  // Each b-bit prime factor contributes at least b - 1 bits to |det|.
  const double bad = std::ceil(det_bits / (prime_bits - 1));
  double pool;
  if (const auto exact = num::count_primes_with_bits(prime_bits)) {
    pool = static_cast<double>(*exact);
  } else {
    // PNT estimate for primes in [2^{b-1}, 2^b).
    pool = std::pow(2.0, prime_bits - 1) /
           (std::log(2.0) * static_cast<double>(prime_bits));
  }
  return std::min(1.0, bad / pool);
}

}  // namespace ccmx::proto
