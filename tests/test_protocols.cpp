// Protocols: exhaustive correctness on small domains, exact bit accounting,
// and measured error rates for the randomized protocols.
#include <gtest/gtest.h>

#include "bigint/modular.hpp"
#include "comm/channel.hpp"
#include "core/reductions.hpp"
#include "linalg/det.hpp"
#include "protocols/equality.hpp"
#include "protocols/fingerprint.hpp"
#include "protocols/freivalds.hpp"
#include "linalg/rref.hpp"
#include "protocols/send_half.hpp"
#include "util/rng.hpp"

namespace {

using namespace ccmx::comm;
using namespace ccmx::proto;
using ccmx::la::IntMatrix;
using ccmx::num::BigInt;
using ccmx::util::Xoshiro256;

IntMatrix random_entries(std::size_t n, unsigned k, Xoshiro256& rng) {
  return IntMatrix::generate(n, n, [&](std::size_t, std::size_t) {
    return BigInt(static_cast<std::int64_t>(
        rng.below(std::uint64_t{1} << k)));
  });
}

TEST(SendHalf, ExhaustiveSingularity2x2) {
  // All 2x2 matrices with 1-bit entries under pi_0.
  const MatrixBitLayout layout(2, 2, 1);
  const Partition pi = Partition::pi0(layout);
  const auto protocol = make_send_half_singularity(layout);
  for (std::uint64_t bits = 0; bits < 16; ++bits) {
    IntMatrix m(2, 2);
    for (std::size_t i = 0; i < 2; ++i) {
      for (std::size_t j = 0; j < 2; ++j) {
        m(i, j) = BigInt(static_cast<std::int64_t>((bits >> (i * 2 + j)) & 1));
      }
    }
    const auto outcome = execute(protocol, layout.encode(m), pi);
    EXPECT_EQ(outcome.answer, ccmx::la::is_singular(m)) << m.to_string();
    EXPECT_EQ(outcome.bits, 2u + 1u);  // half the input + the answer bit
  }
}

TEST(SendHalf, CostIsExactlyHalfPlusOne) {
  Xoshiro256 rng(1);
  for (const unsigned k : {1u, 3u, 8u}) {
    for (const std::size_t n : {2u, 4u, 6u}) {
      const MatrixBitLayout layout(n, n, k);
      const Partition pi = Partition::pi0(layout);
      const auto protocol = make_send_half_singularity(layout);
      const IntMatrix m = random_entries(n, k, rng);
      const auto outcome = execute(protocol, layout.encode(m), pi);
      EXPECT_EQ(outcome.bits, layout.total_bits() / 2 + 1);
      EXPECT_EQ(outcome.answer, ccmx::la::is_singular(m));
    }
  }
}

TEST(SendHalf, WorksUnderRandomEvenPartitions) {
  Xoshiro256 rng(2);
  const MatrixBitLayout layout(4, 4, 2);
  const auto protocol = make_send_half_singularity(layout);
  for (int trial = 0; trial < 20; ++trial) {
    const Partition pi = Partition::random_even(layout.total_bits(), rng);
    IntMatrix m = random_entries(4, 2, rng);
    if (trial % 2 == 0) {
      for (std::size_t i = 0; i < 4; ++i) m(i, 3) = m(i, 0);  // singular
    }
    const auto outcome = execute(protocol, layout.encode(m), pi);
    EXPECT_EQ(outcome.answer, ccmx::la::is_singular(m));
  }
}

TEST(SendHalf, SolvabilityPredicate) {
  Xoshiro256 rng(3);
  const MatrixBitLayout layout(4, 4, 2);  // [A | b] with A 4x3
  const Partition pi = Partition::pi0(layout);
  const auto protocol = make_send_half_solvability(layout);
  int solvable_seen = 0, unsolvable_seen = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const IntMatrix m = random_entries(4, 2, rng);
    const IntMatrix a = m.block(0, 0, 4, 3);
    std::vector<BigInt> b;
    for (std::size_t i = 0; i < 4; ++i) b.push_back(m(i, 3));
    const bool expected = ccmx::core::solvable(a, b);
    (expected ? solvable_seen : unsolvable_seen)++;
    EXPECT_EQ(execute(protocol, layout.encode(m), pi).answer, expected);
  }
  EXPECT_GT(solvable_seen, 0);
  EXPECT_GT(unsolvable_seen, 0);
}

TEST(Fingerprint, SingularAlwaysAccepted) {
  // One-sided error: singular inputs must always be declared singular.
  Xoshiro256 rng(4);
  const MatrixBitLayout layout(4, 4, 4);
  const Partition pi = Partition::pi0(layout);
  for (int trial = 0; trial < 30; ++trial) {
    IntMatrix m = random_entries(4, 4, rng);
    for (std::size_t i = 0; i < 4; ++i) m(i, 2) = m(i, 1);
    const FingerprintProtocol protocol(layout, FingerprintTask::kSingularity,
                                       16, 1, static_cast<std::uint64_t>(trial));
    EXPECT_TRUE(execute(protocol, layout.encode(m), pi).answer);
  }
}

TEST(Fingerprint, NonsingularErrorRateBelowBound) {
  Xoshiro256 rng(5);
  const std::size_t n = 4;
  const unsigned k = 4;
  const unsigned prime_bits = 16;
  const MatrixBitLayout layout(n, n, k);
  const Partition pi = Partition::pi0(layout);
  const double bound = singularity_error_bound(n, k, prime_bits);
  int errors = 0;
  const int trials = 400;
  for (int trial = 0; trial < trials; ++trial) {
    IntMatrix m = random_entries(n, k, rng);
    if (ccmx::la::is_singular(m)) continue;
    const FingerprintProtocol protocol(layout, FingerprintTask::kSingularity,
                                       prime_bits, 1,
                                       static_cast<std::uint64_t>(1000 + trial));
    if (execute(protocol, layout.encode(m), pi).answer) ++errors;
  }
  // Allow generous sampling slack above the analytic bound.
  EXPECT_LE(static_cast<double>(errors) / trials, bound * 10 + 0.02);
}

TEST(Fingerprint, CostMatchesFormula) {
  const std::size_t n = 6;
  const unsigned k = 8, prime_bits = 12, reps = 3;
  const MatrixBitLayout layout(n, n, k);
  const Partition pi = Partition::pi0(layout);
  const FingerprintProtocol protocol(layout, FingerprintTask::kSingularity,
                                     prime_bits, reps, 7);
  Xoshiro256 rng(6);
  const IntMatrix m = random_entries(n, k, rng);
  const auto outcome = execute(protocol, layout.encode(m), pi);
  // Agent 0 owns n * n/2 entries; each ships prime_bits bits, plus 1 answer
  // bit, per repetition.
  EXPECT_EQ(outcome.bits, reps * (n * (n / 2) * prime_bits + 1));
}

TEST(Fingerprint, RejectsBitMisalignedPartition) {
  const MatrixBitLayout layout(2, 2, 2);
  Partition pi = Partition::pi0(layout);
  pi.assign(layout.bit_index(0, 0, 0), Agent::kOne);  // split an entry
  const FingerprintProtocol protocol(layout, FingerprintTask::kSingularity,
                                     8, 1, 1);
  BitVec input(layout.total_bits());
  EXPECT_THROW((void)execute(protocol, input, pi),
               ccmx::util::contract_error);
}

TEST(Fingerprint, FullRankTask) {
  Xoshiro256 rng(8);
  const MatrixBitLayout layout(4, 4, 3);
  const Partition pi = Partition::pi0(layout);
  const FingerprintProtocol protocol(layout, FingerprintTask::kFullRank, 20,
                                     2, 9);
  int agree = 0, total = 0;
  for (int trial = 0; trial < 30; ++trial) {
    IntMatrix m = random_entries(4, 3, rng);
    if (trial % 3 == 0) {
      for (std::size_t i = 0; i < 4; ++i) m(i, 3) = BigInt(0);
    }
    const bool expected = ccmx::la::rank(m) == 4;
    ++total;
    if (execute(protocol, layout.encode(m), pi).answer == expected) ++agree;
    // Full-rank inputs can only be missed with tiny probability; rank
    // deficient inputs are never over-reported.
    if (!expected) {
      EXPECT_FALSE(execute(protocol, layout.encode(m), pi).answer);
    }
  }
  EXPECT_GE(agree, total - 1);
}

TEST(Fingerprint, SolvabilityTask) {
  Xoshiro256 rng(10);
  const MatrixBitLayout layout(4, 4, 2);
  const Partition pi = Partition::pi0(layout);
  const FingerprintProtocol protocol(layout, FingerprintTask::kSolvability,
                                     20, 2, 11);
  for (int trial = 0; trial < 30; ++trial) {
    const IntMatrix m = random_entries(4, 2, rng);
    const IntMatrix a = m.block(0, 0, 4, 3);
    std::vector<BigInt> b;
    for (std::size_t i = 0; i < 4; ++i) b.push_back(m(i, 3));
    const bool expected = ccmx::core::solvable(a, b);
    const bool answered = execute(protocol, layout.encode(m), pi).answer;
    // One-sided: solvable systems stay solvable mod p.
    if (expected) {
      EXPECT_TRUE(answered);
    }
  }
}

TEST(RecommendPrimeBits, MeetsTargetError) {
  for (const double eps : {0.25, 0.01}) {
    const unsigned bits = recommend_prime_bits(16, 8, eps);
    EXPECT_LE(singularity_error_bound(16, 8, bits), eps);
    EXPECT_GE(bits, 3u);
  }
  // Error bound decreases in prime width.
  EXPECT_LE(singularity_error_bound(8, 8, 24),
            singularity_error_bound(8, 8, 12));
}

TEST(Equality, SendAllExhaustive) {
  const std::size_t s = 4;
  const EqualitySendAll protocol(s);
  const Partition pi = equality_partition(s);
  for (std::uint64_t x = 0; x < 16; ++x) {
    for (std::uint64_t y = 0; y < 16; ++y) {
      const BitVec input = equality_input(BitVec::from_uint(x, s),
                                          BitVec::from_uint(y, s));
      const auto outcome = execute(protocol, input, pi);
      EXPECT_EQ(outcome.answer, x == y);
      EXPECT_EQ(outcome.bits, s + 1);
    }
  }
}

TEST(Equality, FingerprintOneSidedAndCheap) {
  const std::size_t s = 256;
  const unsigned prime_bits = 20;
  const Partition pi = equality_partition(s);
  Xoshiro256 rng(12);
  int false_equal = 0;
  for (int trial = 0; trial < 60; ++trial) {
    BitVec x(s), y(s);
    for (std::size_t i = 0; i < s; ++i) {
      const bool bit = rng.coin();
      x.set(i, bit);
      y.set(i, bit);
    }
    const EqualityFingerprint protocol(s, prime_bits,
                                       static_cast<std::uint64_t>(100 + trial));
    // Equal strings always accepted.
    auto outcome = execute(protocol, equality_input(x, y), pi);
    EXPECT_TRUE(outcome.answer);
    EXPECT_EQ(outcome.bits, prime_bits + 1u);
    // Flip one bit: overwhelmingly rejected.
    y.set(rng.below(s), !y.get(0));
    if (!(x == y)) {
      if (execute(protocol, equality_input(x, y), pi).answer) ++false_equal;
    }
  }
  EXPECT_LE(false_equal, 2);
}

TEST(Equality, FingerprintHornerOverWordsMatchesBitwise) {
  // Agent 0 ships x mod p for the first prime its public coin draws.  The
  // word-wise Horner must equal the bitwise one at every word boundary, and
  // agent 1's residue of y = x must match it.
  for (const std::size_t s :
       {std::size_t{1}, std::size_t{63}, std::size_t{64}, std::size_t{65},
        (std::size_t{1} << 18) + 5}) {
    for (const unsigned prime_bits : {20u, 62u}) {
      Xoshiro256 rng(s + prime_bits);
      BitVec x(s);
      for (std::size_t i = 0; i < s; ++i) x.set(i, rng.coin());
      const std::uint64_t seed = 31 + s;
      const BitVec input = equality_input(x, x);
      const Partition pi = equality_partition(s);
      const AgentView agent0(Agent::kZero, input, pi);
      const AgentView agent1(Agent::kOne, input, pi);
      Channel channel;
      const EqualityFingerprint protocol(s, prime_bits, seed);
      EXPECT_TRUE(protocol.run(agent0, agent1, channel));

      Xoshiro256 coins(seed);
      const std::uint64_t p = ccmx::num::random_prime(prime_bits, coins);
      std::uint64_t bitwise = 0;
      for (std::size_t i = s; i-- > 0;) {
        bitwise = (bitwise * 2 + (x.get(i) ? 1u : 0u)) % p;
      }
      EXPECT_EQ(channel.transcript().front().payload.read_uint(0, prime_bits),
                bitwise)
          << "s = " << s << ", prime bits " << prime_bits;
    }
  }
}

TEST(Freivalds, CorrectProductsAlwaysAccepted) {
  Xoshiro256 rng(14);
  const std::size_t n = 5;
  const unsigned k = 4;
  for (int trial = 0; trial < 20; ++trial) {
    const IntMatrix a = random_entries(n, k, rng);
    const IntMatrix b = random_entries(n, k, rng);
    const IntMatrix c = a * b;
    const FreivaldsProtocol protocol(n, k, 24, 1,
                                     static_cast<std::uint64_t>(200 + trial));
    // The true product can exceed k bits; Freivalds reads raw entries, so
    // encode with a wider layout is not needed — C entries must fit k bits
    // for the stacked encoding, so reduce the test to small products.
    if ([&] {
          for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
              if (c(i, j).bit_length() > 12) return true;
            }
          }
          return false;
        }()) {
      continue;
    }
    const BitVec input = product_input(a, b, c, 12);
    const MatrixBitLayout layout = product_layout(n, 12);
    const Partition pi = product_partition(n, 12);
    const FreivaldsProtocol wide(n, 12, 24, 1,
                                 static_cast<std::uint64_t>(300 + trial));
    EXPECT_TRUE(execute(wide, input, pi).answer);
    (void)layout;
    (void)protocol;
  }
}

TEST(Freivalds, WrongProductsRejected) {
  Xoshiro256 rng(15);
  const std::size_t n = 5;
  int accepted_wrong = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const IntMatrix a = random_entries(n, 3, rng);
    const IntMatrix b = random_entries(n, 3, rng);
    IntMatrix c = a * b;
    // Corrupt one entry.
    c(rng.below(n), rng.below(n)) += BigInt(1 + static_cast<std::int64_t>(
                                                rng.below(5)));
    const BitVec input = product_input(a, b, c, 12);
    const Partition pi = product_partition(n, 12);
    const FreivaldsProtocol protocol(n, 12, 24, 2,
                                     static_cast<std::uint64_t>(400 + trial));
    if (execute(protocol, input, pi).answer) ++accepted_wrong;
  }
  EXPECT_EQ(accepted_wrong, 0);
}

TEST(Freivalds, CostLinearInN) {
  const std::size_t n = 8;
  const unsigned prime_bits = 20;
  Xoshiro256 rng(16);
  const IntMatrix a = random_entries(n, 3, rng);
  const IntMatrix b = random_entries(n, 3, rng);
  const IntMatrix c = a * b;
  const BitVec input = product_input(a, b, c, 12);
  const Partition pi = product_partition(n, 12);
  const FreivaldsProtocol protocol(n, 12, prime_bits, 1, 17);
  const auto outcome = execute(protocol, input, pi);
  EXPECT_EQ(outcome.bits, n * prime_bits + 1);
  EXPECT_TRUE(outcome.answer);
  // Compare with the deterministic reference: k n^2 bits.
  const ProductSendAll reference(n, 12);
  const auto ref_outcome = execute(reference, input, pi);
  EXPECT_TRUE(ref_outcome.answer);
  EXPECT_EQ(ref_outcome.bits, 12 * n * n + 1);
  EXPECT_LT(outcome.bits, ref_outcome.bits);
}

TEST(ProductSendAll, MatchesExactProductCheck) {
  Xoshiro256 rng(18);
  const std::size_t n = 4;
  const IntMatrix a = random_entries(n, 2, rng);
  const IntMatrix b = random_entries(n, 2, rng);
  IntMatrix c = a * b;
  const Partition pi = product_partition(n, 10);
  EXPECT_TRUE(execute(ProductSendAll(n, 10), product_input(a, b, c, 10), pi)
                  .answer);
  c(0, 0) += BigInt(1);
  EXPECT_FALSE(execute(ProductSendAll(n, 10), product_input(a, b, c, 10), pi)
                   .answer);
}

}  // namespace
