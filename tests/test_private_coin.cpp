// Newman-style private-coin fingerprinting: correctness, the +log(T)
// overhead, and the one-sided error direction.
#include <gtest/gtest.h>

#include "comm/channel.hpp"
#include "linalg/det.hpp"
#include "protocols/fingerprint.hpp"
#include "protocols/private_coin.hpp"
#include "util/rng.hpp"

namespace {

using namespace ccmx::comm;
using namespace ccmx::proto;
using ccmx::la::IntMatrix;
using ccmx::num::BigInt;
using ccmx::util::Xoshiro256;

IntMatrix random_entries(std::size_t n, unsigned k, Xoshiro256& rng) {
  return IntMatrix::generate(n, n, [&](std::size_t, std::size_t) {
    return BigInt(static_cast<std::int64_t>(rng.below(std::uint64_t{1} << k)));
  });
}

TEST(PrivateCoin, SingularAlwaysAccepted) {
  const MatrixBitLayout layout(4, 4, 4);
  const Partition pi = Partition::pi0(layout);
  Xoshiro256 rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    IntMatrix m = random_entries(4, 4, rng);
    for (std::size_t i = 0; i < 4; ++i) m(i, 3) = m(i, 1);
    const PrivateCoinSingularity protocol(layout, 16, 64, /*table_seed=*/7,
                                          static_cast<std::uint64_t>(trial));
    EXPECT_TRUE(execute(protocol, layout.encode(m), pi).answer);
  }
}

TEST(PrivateCoin, OverheadIsExactlyIndexBits) {
  const std::size_t n = 6;
  const unsigned k = 4, pb = 12;
  const std::size_t table = 256;  // -> 8 index bits
  const MatrixBitLayout layout(n, n, k);
  const Partition pi = Partition::pi0(layout);
  Xoshiro256 rng(2);
  const IntMatrix m = random_entries(n, k, rng);
  const BitVec input = layout.encode(m);

  const PrivateCoinSingularity priv(layout, pb, table, 7, 3);
  EXPECT_EQ(priv.index_bits(), 8u);
  const auto priv_outcome = execute(priv, input, pi);

  const FingerprintProtocol pub(layout, FingerprintTask::kSingularity, pb, 1,
                                3);
  const auto pub_outcome = execute(pub, input, pi);
  EXPECT_EQ(priv_outcome.bits, pub_outcome.bits + priv.index_bits());
}

TEST(PrivateCoin, NonsingularRarelyFooled) {
  const MatrixBitLayout layout(4, 4, 4);
  const Partition pi = Partition::pi0(layout);
  Xoshiro256 rng(3);
  int errors = 0, trials = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const IntMatrix m = random_entries(4, 4, rng);
    if (ccmx::la::is_singular(m)) continue;
    ++trials;
    const PrivateCoinSingularity protocol(layout, 16, 128, 11,
                                          static_cast<std::uint64_t>(trial));
    if (execute(protocol, layout.encode(m), pi).answer) ++errors;
  }
  EXPECT_GT(trials, 100);
  EXPECT_LE(errors, 4);
}

TEST(PrivateCoin, TableIsSharedDeterministically) {
  // Two protocol objects with the same table seed agree on the table (the
  // "protocol description" is common knowledge); different private seeds
  // only change which entry gets used.
  const MatrixBitLayout layout(4, 4, 2);
  const PrivateCoinSingularity a(layout, 10, 32, 5, 1);
  const PrivateCoinSingularity b(layout, 10, 32, 5, 2);
  EXPECT_EQ(a.table(), b.table());
  const PrivateCoinSingularity c(layout, 10, 32, 6, 1);
  EXPECT_NE(a.table(), c.table());
}

TEST(PrivateCoin, RejectsEntrySplitByRandomEvenPartition) {
  // A random even partition splits entries between the agents.  Neither
  // agent can reduce an entry it reads only part of, so the protocol must
  // refuse the input rather than decide a matrix with zeroed bits.
  const MatrixBitLayout layout(4, 4, 4);
  Xoshiro256 rng(4);
  const Partition pi = Partition::random_even(layout.total_bits(), rng);
  const IntMatrix m = random_entries(4, 4, rng);
  const PrivateCoinSingularity protocol(layout, 16, 64, 7, 1);
  EXPECT_THROW((void)execute(protocol, layout.encode(m), pi),
               ccmx::util::contract_error);
}

TEST(PrivateCoin, RejectsDegenerateParameters) {
  const MatrixBitLayout layout(2, 2, 2);
  EXPECT_THROW((void)PrivateCoinSingularity(layout, 1, 16, 1, 1),
               ccmx::util::contract_error);
  EXPECT_THROW((void)PrivateCoinSingularity(layout, 8, 1, 1, 1),
               ccmx::util::contract_error);
}

}  // namespace
