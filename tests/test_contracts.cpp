// Failure injection: every public precondition must throw contract_error —
// not crash, not silently misbehave.  One test per module cluster.
#include <gtest/gtest.h>

#include "bigint/bigint.hpp"
#include "bigint/modular.hpp"
#include "bigint/negabase.hpp"
#include "comm/channel.hpp"
#include "comm/exact_cc.hpp"
#include "core/construction.hpp"
#include "linalg/det.hpp"
#include "linalg/fp.hpp"
#include "linalg/lup.hpp"
#include "linalg/poly.hpp"
#include "linalg/qr.hpp"
#include "linalg/rref.hpp"
#include "protocols/equality.hpp"
#include "protocols/fingerprint.hpp"
#include "protocols/freivalds.hpp"
#include "protocols/private_coin.hpp"
#include "protocols/send_half.hpp"
#include "vlsi/mesh.hpp"
#include "vlsi/tradeoffs.hpp"

namespace {

using ccmx::la::IntMatrix;
using ccmx::la::ModMatrix;
using ccmx::la::RatMatrix;
using ccmx::num::BigInt;
using ccmx::num::Rational;
using ccmx::util::contract_error;

TEST(Contracts, BigIntFamily) {
  EXPECT_THROW((void)BigInt(5).divide_exact(BigInt(0)), contract_error);
  EXPECT_THROW((void)BigInt(5).mod_u64(0), contract_error);
}

TEST(Contracts, BigIntToInt64Boundary) {
  EXPECT_NO_THROW((void)BigInt::pow2(62).to_int64());
  EXPECT_THROW((void)BigInt::pow2(64).to_int64(), contract_error);
}

TEST(Contracts, ModularFamily) {
  EXPECT_THROW((void)ccmx::num::powmod(2, 3, 0), contract_error);
  EXPECT_THROW((void)ccmx::num::Zp(7).inv(0), contract_error);
  ccmx::util::Xoshiro256 rng(1);
  EXPECT_THROW((void)ccmx::num::random_prime(1, rng), contract_error);
  EXPECT_THROW((void)ccmx::num::random_prime(63, rng), contract_error);
  EXPECT_THROW((void)ccmx::num::to_negabase(BigInt(1), 1, 4), contract_error);
}

TEST(Contracts, MatrixShapes) {
  const IntMatrix a(2, 3), b(2, 3);
  EXPECT_THROW((void)(a * b), contract_error);           // 3 != 2
  EXPECT_THROW((void)multiply(a, std::vector<BigInt>(2)), contract_error);
  EXPECT_THROW((void)ccmx::la::det_bareiss(a), contract_error);
  EXPECT_THROW((void)ccmx::la::det_cofactor(IntMatrix(11, 11)),
               contract_error);
  EXPECT_THROW((void)a.augment(IntMatrix(3, 1)), contract_error);
  EXPECT_THROW((void)a.permute_rows({0}), contract_error);
  EXPECT_THROW((void)a.permute_rows({0, 5}), contract_error);
  // rows * cols = 2^64 wraps to 0 without the overflow check.
  EXPECT_THROW((void)ModMatrix(std::size_t{1} << 33, std::size_t{1} << 31),
               contract_error);
}

TEST(Contracts, DecompositionShapes) {
  const RatMatrix rect(2, 3);
  EXPECT_THROW((void)ccmx::la::lup_decompose(rect), contract_error);
  EXPECT_THROW((void)ccmx::la::qr_decompose(rect), contract_error);  // rows < cols
  EXPECT_THROW((void)ccmx::la::solve(rect, std::vector<Rational>(3)),
               contract_error);
  EXPECT_THROW((void)ccmx::la::span_intersection_dim(RatMatrix(2, 1),
                                                     RatMatrix(3, 1)),
               contract_error);
}

TEST(Contracts, FpFamily) {
  EXPECT_THROW((void)ccmx::la::det_mod_p(ModMatrix(2, 3), 7), contract_error);
  // Every Z_p entry point takes only moduli in [2, 2^62): 0 used to die
  // with SIGFPE, and moduli at or above 2^62 wrapped a + p - b.
  const ModMatrix m(2, 2, 1);
  for (const std::uint64_t p :
       {std::uint64_t{0}, std::uint64_t{1}, (std::uint64_t{1} << 62) + 135,
        ~std::uint64_t{0} - 58}) {
    EXPECT_THROW((void)ccmx::la::det_mod_p(m, p), contract_error) << p;
    EXPECT_THROW((void)ccmx::la::rank_mod_p(m, p), contract_error) << p;
    EXPECT_THROW((void)ccmx::la::solvable_mod_p(m, p), contract_error) << p;
    EXPECT_THROW((void)ccmx::la::multiply_mod_p(m, m, p), contract_error)
        << p;
    EXPECT_THROW((void)ccmx::la::reduce_mod(IntMatrix(2, 2), p),
                 contract_error)
        << p;
    ccmx::vlsi::MeshConfig config;
    config.p = p;
    EXPECT_THROW((void)ccmx::vlsi::simulate_mesh(m, config), contract_error)
        << p;
  }
}

TEST(Contracts, PolyFamily) {
  using ccmx::la::Poly;
  EXPECT_THROW((void)Poly().leading(), contract_error);
  EXPECT_THROW((void)ccmx::la::sturm_chain(Poly()), contract_error);
  EXPECT_THROW((void)ccmx::la::count_real_roots(
                   Poly({Rational(1)}), Rational(1), Rational(1)),
               contract_error);
}

TEST(Contracts, CommFamily) {
  const ccmx::comm::MatrixBitLayout layout(2, 2, 2);
  // Mismatched input length.
  const ccmx::comm::Partition pi(layout.total_bits());
  ccmx::comm::BitVec short_input(4);
  EXPECT_THROW(
      (void)ccmx::comm::AgentView(ccmx::comm::Agent::kZero, short_input, pi),
      contract_error);
  // pi0 needs even columns.
  const ccmx::comm::MatrixBitLayout odd(2, 3, 1);
  EXPECT_THROW((void)ccmx::comm::Partition::pi0(odd), contract_error);
  // exact_cc size limit.
  ccmx::comm::TruthMatrix big(13, 2);
  EXPECT_THROW((void)ccmx::comm::exact_cc(big), contract_error);
}

TEST(Contracts, ProtocolInputValidation) {
  const ccmx::comm::MatrixBitLayout layout(2, 2, 2);
  const auto protocol = ccmx::proto::make_send_half_singularity(layout);
  const ccmx::comm::Partition pi = ccmx::comm::Partition::pi0(layout);
  ccmx::comm::BitVec wrong(4);  // layout wants 8 bits
  EXPECT_THROW((void)ccmx::comm::execute(protocol, wrong,
                                         ccmx::comm::Partition(4)),
               contract_error);
  (void)pi;
}

/// num::kZpBits is the one width cap: every entry point that takes an
/// entry width or a prime width accepts 62 bits and rejects 63.
class WidthCap : public testing::TestWithParam<unsigned> {};

TEST_P(WidthCap, EveryEntryPointHoldsTheZpCap) {
  const unsigned width = GetParam();
  const auto check = [&](const auto& construct) {
    if (width <= 62) {
      EXPECT_NO_THROW(construct());
    } else {
      EXPECT_THROW(construct(), contract_error);
    }
  };
  namespace proto = ccmx::proto;
  const ccmx::comm::MatrixBitLayout layout(2, 2, 2);
  check([&] { (void)ccmx::comm::MatrixBitLayout(2, 2, width); });
  check([&] { (void)proto::FreivaldsProtocol(2, width, 8, 1, 1); });
  check([&] { (void)proto::FreivaldsProtocol(2, 2, width, 1, 1); });
  check([&] { (void)proto::EqualityFingerprint(8, width, 1); });
  check([&] {
    (void)proto::FingerprintProtocol(
        layout, proto::FingerprintTask::kSingularity, width, 1, 1);
  });
  check([&] { (void)proto::RankThresholdProtocol(layout, 1, width, 1, 1); });
  check([&] { (void)proto::PrivateCoinSingularity(layout, width, 2, 1, 2); });
}

INSTANTIATE_TEST_SUITE_P(Contracts, WidthCap, testing::Values(62u, 63u));

TEST(Contracts, ConstructionFamily) {
  EXPECT_THROW((void)ccmx::core::ConstructionParams(6, 2), contract_error);
  EXPECT_THROW((void)ccmx::core::ConstructionParams(7, 1), contract_error);
  EXPECT_THROW((void)ccmx::core::ConstructionParams(7, 21), contract_error);
  const ccmx::core::ConstructionParams p(7, 2);
  EXPECT_THROW((void)ccmx::core::build_a(p, IntMatrix(2, 3)), contract_error);
  EXPECT_THROW((void)ccmx::core::c_instance(p, 19683), contract_error);
}

TEST(Contracts, VlsiFamily) {
  EXPECT_THROW((void)ccmx::vlsi::simulate_mesh(ModMatrix(2, 3),
                                               ccmx::vlsi::MeshConfig{}),
               contract_error);
  EXPECT_THROW((void)ccmx::vlsi::audit_design(4, 2, 0.0, 1.0),
               contract_error);
  EXPECT_THROW((void)ccmx::vlsi::min_time_for_area(4, 2, 0.0),
               contract_error);
}

}  // namespace
