// The modular exact engine behind la::rank(IntMatrix), la::is_singular and
// la::solvable (and core::solvable), checked against the oracles it
// replaced: Bareiss (det_bareiss == 0), rational Gauss-Jordan rank, and
// rational la::solve.  Every certificate is re-verified here by a checker
// that calls no engine entry point: BigInt products, Bareiss minors reduced
// mod their prime, rank_mod_p, and Hadamard bounds recomputed from the
// entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <tuple>
#include <vector>

#include "core/construction.hpp"
#include "core/reductions.hpp"
#include "linalg/det.hpp"
#include "linalg/exact.hpp"
#include "linalg/fp.hpp"
#include "linalg/ladder.hpp"
#include "linalg/rref.hpp"
#include "obs/obs.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace {

using ccmx::la::IntMatrix;
using ccmx::la::RankCertificate;
using ccmx::la::RankPath;
using ccmx::la::SingularityCertificate;
using ccmx::la::SingularPath;
using ccmx::la::SolvabilityCertificate;
using ccmx::la::SolvablePath;
using ccmx::num::BigInt;
using ccmx::num::Rational;
using ccmx::util::Xoshiro256;

IntMatrix random_box(std::size_t rows, std::size_t cols, std::int64_t mag,
                     Xoshiro256& rng) {
  return IntMatrix::generate(rows, cols, [&](std::size_t, std::size_t) {
    return BigInt(rng.range(-mag, mag));
  });
}

/// rows x cols with rank at most r: an L R product of random factors.
IntMatrix product_of_rank(std::size_t rows, std::size_t cols, std::size_t r,
                          Xoshiro256& rng) {
  if (r == 0) return IntMatrix(rows, cols);
  return random_box(rows, r, 2, rng) * random_box(r, cols, 2, rng);
}

/// D1 m D2 for diagonal D1, D2 of distinct factors 2^70 + r: same rank and
/// signs as m, with every nonzero entry at least three limbs wide.
IntMatrix multi_limb(const IntMatrix& m, Xoshiro256& rng) {
  const auto factor = [&] {
    return BigInt::pow2(70) + BigInt(rng.range(1, 1000));
  };
  std::vector<BigInt> row_factor(m.rows()), col_factor(m.cols());
  for (auto& f : row_factor) f = factor();
  for (auto& f : col_factor) f = factor();
  return IntMatrix::generate(m.rows(), m.cols(),
                             [&](std::size_t i, std::size_t j) {
                               return m(i, j) * row_factor[i] * col_factor[j];
                             });
}

/// Entries of about 80 bits, either sign.
IntMatrix random_wide(std::size_t rows, std::size_t cols, Xoshiro256& rng) {
  return IntMatrix::generate(rows, cols, [&](std::size_t, std::size_t) {
    const BigInt v = BigInt(static_cast<std::int64_t>(rng() >> 2)) *
                         BigInt::pow2(18) +
                     BigInt(rng.range(-9, 9));
    return rng.coin() ? v : -v;
  });
}

std::vector<Rational> to_rationals(const std::vector<BigInt>& v) {
  std::vector<Rational> out;
  out.reserve(v.size());
  for (const BigInt& x : v) out.emplace_back(x);
  return out;
}

/// The Hadamard bound, in bits, on every s x s minor of m: the smaller of
/// the sums of the s largest column and row norm bits, each
/// ceil(bits(||line||^2) / 2); 0 when fewer than s lines are nonzero.
std::size_t hadamard_bits(const IntMatrix& m, std::size_t s) {
  const auto top = [s](std::vector<std::size_t> bits) -> std::size_t {
    if (s > bits.size()) return 0;
    std::sort(bits.begin(), bits.end(), std::greater<>());
    std::size_t sum = 0;
    for (std::size_t i = 0; i < s; ++i) sum += bits[i];
    return sum;
  };
  std::vector<std::size_t> cols, rows;
  for (const bool by_rows : {false, true}) {
    const std::size_t lines = by_rows ? m.rows() : m.cols();
    const std::size_t length = by_rows ? m.cols() : m.rows();
    for (std::size_t a = 0; a < lines; ++a) {
      BigInt squares(0);
      for (std::size_t b = 0; b < length; ++b) {
        const BigInt& v = by_rows ? m(a, b) : m(b, a);
        squares += v * v;
      }
      if (!squares.is_zero()) {
        (by_rows ? rows : cols).push_back((squares.bit_length() + 1) / 2);
      }
    }
  }
  return std::min(top(cols), top(rows));
}

/// m's rank modulo p, by the Z_p elimination (no exact engine).
std::size_t rank_mod(const IntMatrix& m, std::uint64_t p) {
  return ccmx::la::rank_mod_p(ccmx::la::reduce_mod(m, p), p);
}

/// Whether every prime saw rank <= r and together they pass the stop rule:
/// their product, above 2^{61 x primes}, divides every (r+1)-minor.
::testing::AssertionResult stop_rule_holds(
    const IntMatrix& m, std::size_t r,
    const std::vector<std::uint64_t>& primes) {
  for (const std::uint64_t p : primes) {
    if (rank_mod(m, p) > r) {
      return ::testing::AssertionFailure() << "rank above " << r << " mod "
                                           << p;
    }
  }
  if (61 * primes.size() <= hadamard_bits(m, r + 1)) {
    return ::testing::AssertionFailure()
           << primes.size() << " primes under the bound on " << r + 1
           << "-minors";
  }
  return ::testing::AssertionSuccess();
}

/// Re-verifies a rank certificate's upper bound rank(m) <= c.rank without
/// the engine.  Full rank needs nothing.  A kernel witness must hold
/// cols - rank vectors x with m x = 0, each positive at its own free column
/// and 0 at the other free columns (a positive diagonal block: the vectors
/// are independent, so the rank is at most the certified one).  The ladder
/// must reach full rank or pass the stop rule.
::testing::AssertionResult certificate_holds(const IntMatrix& m,
                                             const RankCertificate& c) {
  const std::size_t full = std::min(m.rows(), m.cols());
  if (c.path != RankPath::kKernel) {
    if (!c.kernel.empty() || !c.free_cols.empty()) {
      return ::testing::AssertionFailure() << "vectors off the kernel path";
    }
    if (c.path == RankPath::kFullRank || c.rank == full) {
      return c.rank == full ? ::testing::AssertionSuccess()
                            : ::testing::AssertionFailure()
                                  << "full rank path at " << c.rank;
    }
    return stop_rule_holds(m, c.rank, c.primes);
  }
  const std::size_t w = m.cols() - c.rank;
  if (c.kernel.size() != w || c.free_cols.size() != w) {
    return ::testing::AssertionFailure()
           << c.kernel.size() << " vectors for nullity " << w;
  }
  for (std::size_t v = 0; v < w; ++v) {
    const std::vector<BigInt>& x = c.kernel[v];
    if (x.size() != m.cols()) {
      return ::testing::AssertionFailure() << "vector " << v << " length";
    }
    for (std::size_t i = 0; i < m.rows(); ++i) {
      BigInt sum(0);
      for (std::size_t j = 0; j < m.cols(); ++j) sum += m(i, j) * x[j];
      if (!sum.is_zero()) {
        return ::testing::AssertionFailure()
               << "vector " << v << " misses row " << i;
      }
    }
    for (std::size_t u = 0; u < w; ++u) {
      const BigInt& at = x[c.free_cols[u]];
      if (u == v ? at <= BigInt(0) : !at.is_zero()) {
        return ::testing::AssertionFailure()
               << "vector " << v << " at free column " << c.free_cols[u];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Both bounds of a rank certificate: the upper one, and rank(m) >= c.rank
/// from the largest rank m shows modulo its primes.
::testing::AssertionResult rank_holds(const IntMatrix& m,
                                      const RankCertificate& c) {
  std::size_t seen = 0;
  for (const std::uint64_t p : c.primes) seen = std::max(seen, rank_mod(m, p));
  if (seen != c.rank) {
    return ::testing::AssertionFailure()
           << "primes show rank " << seen << ", certified " << c.rank;
  }
  return certificate_holds(m, c);
}

/// m x as BigInts.
std::vector<BigInt> times(const IntMatrix& m, const std::vector<BigInt>& x) {
  std::vector<BigInt> out(m.rows(), BigInt(0));
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) out[i] += m(i, j) * x[j];
  }
  return out;
}

/// Re-verifies an is_singular answer without the engine.
::testing::AssertionResult singularity_holds(const IntMatrix& m,
                                             const SingularityCertificate& c) {
  const std::size_t n = m.rows();
  switch (c.path) {
    case SingularPath::kResidue:
      if (c.singular) return ::testing::AssertionFailure() << "residue path";
      if (n == 0) return ::testing::AssertionSuccess();  // det = 1
      if (c.primes.empty() ||
          ccmx::la::det_bareiss(m).mod_floor_u64(c.primes.back()) == 0) {
        return ::testing::AssertionFailure() << "det is 0 mod the last prime";
      }
      return ::testing::AssertionSuccess();
    case SingularPath::kKernel: {
      const bool nonzero =
          std::any_of(c.kernel.begin(), c.kernel.end(),
                      [](const BigInt& v) { return !v.is_zero(); });
      if (!c.singular || c.kernel.size() != n || !nonzero) {
        return ::testing::AssertionFailure() << "no nonzero kernel vector";
      }
      for (const BigInt& v : times(m, c.kernel)) {
        if (!v.is_zero()) {
          return ::testing::AssertionFailure() << "M x != 0";
        }
      }
      return ::testing::AssertionSuccess();
    }
    case SingularPath::kBounded:
      if (!c.singular || c.rank >= n) {
        return ::testing::AssertionFailure() << "bounded at rank " << c.rank;
      }
      return stop_rule_holds(m, c.rank, c.primes);
  }
  return ::testing::AssertionFailure() << "unknown path";
}

/// Re-verifies a solvable(a, b) answer without the engine.
::testing::AssertionResult solvability_holds(const IntMatrix& a,
                                             const std::vector<BigInt>& b,
                                             const SolvabilityCertificate& c) {
  const IntMatrix ab = IntMatrix::generate(
      a.rows(), a.cols() + 1, [&](std::size_t i, std::size_t j) {
        return j < a.cols() ? a(i, j) : b[i];
      });
  switch (c.path) {
    case SolvablePath::kSolution: {
      if (!c.solvable || c.x.size() != a.cols() || c.d <= BigInt(0)) {
        return ::testing::AssertionFailure() << "malformed solution";
      }
      const std::vector<BigInt> ax = times(a, c.x);
      for (std::size_t i = 0; i < a.rows(); ++i) {
        if (ax[i] != c.d * b[i]) {
          return ::testing::AssertionFailure() << "A x != d b at row " << i;
        }
      }
      return ::testing::AssertionSuccess();
    }
    case SolvablePath::kPivot: {
      const std::size_t order = c.a_rank.rank + 1;
      std::vector<std::size_t> rows = c.minor_rows;
      std::sort(rows.begin(), rows.end());
      if (c.solvable || c.minor_rows.size() != order ||
          c.minor_cols.size() != order || c.minor_cols.back() != a.cols() ||
          std::adjacent_find(rows.begin(), rows.end()) != rows.end() ||
          std::adjacent_find(c.minor_cols.begin(), c.minor_cols.end(),
                             std::greater_equal<>()) != c.minor_cols.end()) {
        return ::testing::AssertionFailure() << "malformed pivot minor";
      }
      const IntMatrix minor =
          IntMatrix::generate(order, order, [&](std::size_t i, std::size_t j) {
            return ab(c.minor_rows[i], c.minor_cols[j]);
          });
      if (ccmx::la::det_bareiss(minor).mod_floor_u64(c.prime) == 0) {
        return ::testing::AssertionFailure() << "pivot minor is 0 mod p";
      }
      return certificate_holds(a, c.a_rank);
    }
    case SolvablePath::kRanks: {
      if (c.solvable != (c.a_rank.rank == c.ab_rank.rank)) {
        return ::testing::AssertionFailure() << "answer against the ranks";
      }
      const ::testing::AssertionResult a_holds = rank_holds(a, c.a_rank);
      return a_holds ? rank_holds(ab, c.ab_rank) : a_holds;
    }
  }
  return ::testing::AssertionFailure() << "unknown path";
}

/// The engine's answers to is_singular(m) and solvable(a, b), each checked
/// against its certificate and the bool entry points.
SingularityCertificate checked_singularity(const IntMatrix& m) {
  const SingularityCertificate c = ccmx::la::singularity_certificate(m);
  EXPECT_TRUE(singularity_holds(m, c)) << m.to_string();
  EXPECT_EQ(ccmx::la::is_singular(m), c.singular);
  return c;
}

SolvabilityCertificate checked_solvability(const IntMatrix& a,
                                           const std::vector<BigInt>& b) {
  const SolvabilityCertificate c = ccmx::la::solvability_certificate(a, b);
  EXPECT_TRUE(solvability_holds(a, b, c)) << a.to_string();
  EXPECT_EQ(ccmx::core::solvable(a, b), c.solvable);
  return c;
}

/// Checks every entry point on m against its oracle, plus solvability for
/// a solvable, an arbitrary and a zero right-hand side.
void check_against_oracles(const IntMatrix& m, Xoshiro256& rng) {
  const auto rational = ccmx::la::to_rational(m);
  const std::size_t rank = ccmx::la::rank(m);
  ASSERT_EQ(rank, ccmx::la::rank(rational)) << m.to_string();
  const RankCertificate cert = ccmx::la::rank_certificate(m);
  ASSERT_EQ(cert.rank, rank);
  ASSERT_TRUE(certificate_holds(m, cert)) << m.to_string();
  if (m.is_square()) {
    ASSERT_EQ(checked_singularity(m).singular,
              ccmx::la::det_bareiss(m).is_zero())
        << m.to_string();
  }
  std::vector<BigInt> x(m.cols()), arbitrary(m.rows());
  for (auto& v : x) v = BigInt(rng.range(-3, 3));
  for (auto& v : arbitrary) v = BigInt(rng.range(-3, 3));
  for (const std::vector<BigInt>& b : {ccmx::la::multiply(m, x), arbitrary}) {
    ASSERT_EQ(checked_solvability(m, b).solvable,
              ccmx::la::solve(rational, to_rationals(b)).has_value())
        << m.to_string();
  }
  ASSERT_TRUE(
      checked_solvability(m, std::vector<BigInt>(m.rows(), BigInt(0)))
          .solvable);
}

class ExactEngineSweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(ExactEngineSweep, ProductsOfEveryRankMatchOracles) {
  const auto [rows, cols] = GetParam();
  Xoshiro256 rng(rows * 100 + cols);
  for (std::size_t r = 0; r <= std::min(rows, cols); ++r) {
    SCOPED_TRACE(testing::Message() << rows << "x" << cols << " rank<=" << r);
    check_against_oracles(product_of_rank(rows, cols, r, rng), rng);
  }
}

TEST_P(ExactEngineSweep, DenseZeroLinesAndMultiLimbMatchOracles) {
  const auto [rows, cols] = GetParam();
  // The rational oracles slow down sharply with entry size: multi-limb
  // inputs stay at the smaller shapes.
  const bool wide_entries = rows * cols <= 100;
  Xoshiro256 rng(rows * 1000 + cols);
  for (int trial = 0; trial < 2; ++trial) {
    SCOPED_TRACE(testing::Message() << rows << "x" << cols << " #" << trial);
    IntMatrix m = random_box(rows, cols, 9, rng);  // negative entries too
    check_against_oracles(m, rng);
    // A zero row and a zero column.
    const std::size_t zr = rng.below(rows);
    const std::size_t zc = rng.below(cols);
    for (std::size_t j = 0; j < cols; ++j) m(zr, j) = BigInt(0);
    for (std::size_t i = 0; i < rows; ++i) m(i, zc) = BigInt(0);
    check_against_oracles(m, rng);
    // Singular by a repeated row.
    if (rows >= 2) {
      for (std::size_t j = 0; j < cols; ++j) m(rows - 1, j) = m(0, j);
      check_against_oracles(m, rng);
    }
    if (!wide_entries) continue;
    check_against_oracles(multi_limb(m, rng), rng);
    check_against_oracles(random_wide(rows, cols, rng), rng);
    check_against_oracles(
        multi_limb(product_of_rank(rows, cols, std::min(rows, cols) / 2, rng),
                   rng),
        rng);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ExactEngineSweep,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{2, 2},
                      std::pair<std::size_t, std::size_t>{5, 5},
                      std::pair<std::size_t, std::size_t>{8, 8},
                      std::pair<std::size_t, std::size_t>{13, 13},
                      std::pair<std::size_t, std::size_t>{24, 24},
                      std::pair<std::size_t, std::size_t>{1, 7},
                      std::pair<std::size_t, std::size_t>{7, 3},
                      std::pair<std::size_t, std::size_t>{9, 16},
                      std::pair<std::size_t, std::size_t>{24, 11}));

TEST(ExactEngine, EmptyAndZeroMatrices) {
  EXPECT_EQ(ccmx::la::rank(IntMatrix(0, 0)), 0u);
  EXPECT_EQ(ccmx::la::rank(IntMatrix(0, 5)), 0u);
  EXPECT_EQ(ccmx::la::rank(IntMatrix(4, 0)), 0u);
  EXPECT_FALSE(ccmx::la::is_singular(IntMatrix(0, 0)));  // det = 1
  EXPECT_TRUE(ccmx::la::is_singular(IntMatrix(6, 6)));
  EXPECT_TRUE(ccmx::core::solvable(IntMatrix(3, 0), std::vector<BigInt>(3)));
  EXPECT_FALSE(ccmx::core::solvable(
      IntMatrix(3, 0), {BigInt(0), BigInt(1), BigInt(0)}));
  EXPECT_THROW((void)ccmx::la::is_singular(IntMatrix(2, 3)),
               ccmx::util::contract_error);
}

TEST(ExactEngine, FirstLadderPrimeDividingDetIsNotSingular) {
  // diag(p1, 1, ..., 1): the first prime sees rank n - 1, the second full.
  const std::uint64_t p1 = ccmx::la::next_ladder_prime(0);
  IntMatrix m = IntMatrix::identity(5, BigInt(1));
  m(0, 0) = BigInt(static_cast<std::int64_t>(p1));
  EXPECT_FALSE(ccmx::la::is_singular(m));
  EXPECT_EQ(ccmx::la::rank(m), 5u);
  EXPECT_FALSE(ccmx::la::det_bareiss(m).is_zero());
  // Column 0 is free mod p1, and its lifted vector e_0 misses row 0: a
  // false drop, so the ladder goes on and p2 shows full rank.
  const SingularityCertificate sc = checked_singularity(m);
  EXPECT_FALSE(sc.singular);
  EXPECT_EQ(sc.path, SingularPath::kResidue);
  EXPECT_EQ(sc.primes, (std::vector<std::uint64_t>{
                           p1, ccmx::la::next_ladder_prime(p1)}));
  // Every b is solvable.  b = e_0 takes a pivot mod p1 beside A's false
  // drop, so both ranks are certified; b = m (1, ..., 1) is free mod p1,
  // and its lifted vector misses row 0 too.
  std::vector<BigInt> e0(5, BigInt(0));
  e0[0] = BigInt(1);
  for (const std::vector<BigInt>& b :
       {e0, ccmx::la::multiply(m, std::vector<BigInt>(5, BigInt(1)))}) {
    const SolvabilityCertificate c = checked_solvability(m, b);
    EXPECT_TRUE(c.solvable);
    EXPECT_EQ(c.path, SolvablePath::kRanks);
  }
}

TEST(ExactEngine, RankSurvivesTwoPrimesSeeingZero) {
  // [p1 p2]: rank 0 modulo the first two ladder primes, rank 1 over Q.
  const std::uint64_t p1 = ccmx::la::next_ladder_prime(0);
  const std::uint64_t p2 = ccmx::la::next_ladder_prime(p1);
  const IntMatrix m{{BigInt(static_cast<std::int64_t>(p1)) *
                     BigInt(static_cast<std::int64_t>(p2))}};
  EXPECT_EQ(ccmx::la::rank(m), 1u);
  EXPECT_FALSE(ccmx::la::is_singular(m));
  EXPECT_TRUE(ccmx::core::solvable(m, {BigInt(1)}));
}

TEST(ExactEngine, HardInstancesAndCorollary13PairsMatchOracles) {
  Xoshiro256 rng(31);
  for (const auto& [n, k] : std::vector<std::pair<std::size_t, unsigned>>{
           {7, 2}, {9, 2}}) {
    const ccmx::core::ConstructionParams p(n, k);
    int singular_seen = 0;
    for (int trial = 0; trial < 8; ++trial) {
      SCOPED_TRACE(testing::Message() << "(" << n << ", " << k << ") #"
                                      << trial);
      ccmx::core::FreeParts parts = ccmx::core::FreeParts::random(p, rng);
      if (trial % 2 == 0) {
        const auto done = ccmx::core::lemma35_complete(p, parts.c, parts.e);
        ASSERT_TRUE(done.has_value());
        parts = *done;
      }
      const IntMatrix m = ccmx::core::build_m(p, parts);
      const bool singular = ccmx::la::det_bareiss(m).is_zero();
      const SingularityCertificate sc = checked_singularity(m);
      EXPECT_EQ(sc.singular, singular);
      EXPECT_EQ(sc.primes.size(), 1u);  // one elimination settles it
      EXPECT_EQ(ccmx::la::rank(m), ccmx::la::rank(ccmx::la::to_rational(m)));
      const auto pair = ccmx::core::corollary13_instance(m);
      const bool oracle =
          ccmx::la::solve(ccmx::la::to_rational(pair.m_prime),
                          to_rationals(pair.b))
              .has_value();
      const SolvabilityCertificate c = checked_solvability(pair.m_prime, pair.b);
      EXPECT_EQ(c.solvable, oracle);
      EXPECT_EQ(oracle, singular);  // Corollary 1.3
      // A solvable pair lifts its solution; an unsolvable one has b's pivot,
      // and M''s zero column settles rank(M') by the stop rule at once.
      EXPECT_EQ(c.path, singular ? SolvablePath::kSolution : SolvablePath::kPivot);
      if (!singular) {
        EXPECT_EQ(c.a_rank.primes.size(), 1u);
      }
      singular_seen += singular ? 1 : 0;
    }
    EXPECT_EQ(singular_seen, 4);  // every completion is singular
  }
}

/// The solution the engine lifts for a x = b, checked like every
/// certificate and against rational Gauss-Jordan: the path is kSolution
/// and x / d is la::solve's answer.
SolvabilityCertificate lifted_solution(const IntMatrix& a,
                                       const std::vector<BigInt>& b) {
  const SolvabilityCertificate c = checked_solvability(a, b);
  EXPECT_EQ(c.path, SolvablePath::kSolution) << a.to_string();
  const auto reference =
      ccmx::la::solve(ccmx::la::to_rational(a), to_rationals(b));
  if (!reference || c.x.size() != reference->size()) {
    ADD_FAILURE() << "no solution to compare\n" << a.to_string();
    return c;
  }
  for (std::size_t j = 0; j < c.x.size(); ++j) {
    EXPECT_EQ(Rational(c.x[j], c.d), (*reference)[j]) << "x[" << j << "]";
  }
  return c;
}

class ExactEngineSolutionSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned>> {};

TEST_P(ExactEngineSolutionSweep, NonsingularSystemsMatchRationalGaussian) {
  const auto [n, bits] = GetParam();
  Xoshiro256 rng(n * 100 + bits);
  for (int trial = 0; trial < 6; ++trial) {
    // Random (almost surely nonsingular) system with entries below 2^bits.
    const IntMatrix a =
        IntMatrix::generate(n, n, [&](std::size_t, std::size_t) {
          BigInt v(static_cast<std::int64_t>(
              rng.below(std::uint64_t{1} << bits)));
          return rng.coin() ? v : -v;
        });
    if (ccmx::la::det_bareiss(a).is_zero()) continue;
    std::vector<BigInt> b;
    for (std::size_t i = 0; i < n; ++i) b.push_back(BigInt(rng.range(-99, 99)));
    SCOPED_TRACE(testing::Message() << "n=" << n << " bits=" << bits << " #"
                                    << trial);
    (void)lifted_solution(a, b);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ExactEngineSolutionSweep,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{3},
                                         std::size_t{6}, std::size_t{9}),
                       ::testing::Values(3u, 20u, 40u)));

TEST(ExactEngineSolution, SolutionIsExactRational) {
  // 2x = 1 -> x = 1/2 (a genuinely non-integer solution).
  const SolvabilityCertificate c =
      lifted_solution(IntMatrix{{BigInt(2)}}, {BigInt(1)});
  ASSERT_EQ(c.x.size(), 1u);
  EXPECT_EQ(Rational(c.x[0], c.d), Rational(BigInt(1), BigInt(2)));
}

TEST(ExactEngineSolution, EmptySystem) {
  const SolvabilityCertificate c = lifted_solution(IntMatrix(0, 0), {});
  EXPECT_TRUE(c.solvable);
  EXPECT_TRUE(c.x.empty());
}

/// Turns tracing on for one test and restores the prior state after.
class TracingOn {
 public:
  TracingOn() : was_(ccmx::obs::enabled()) {
    ccmx::obs::set_enabled(true);
    ccmx::obs::reset_values();
  }
  ~TracingOn() {
    ccmx::obs::reset_values();
    ccmx::obs::set_enabled(was_);
  }
  TracingOn(const TracingOn&) = delete;
  TracingOn& operator=(const TracingOn&) = delete;

 private:
  bool was_;
};

TEST(ExactEngineCounters, FullRankUsesOnePrimeAndDeficientIsBounded) {
#ifdef CCMX_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out (CCMX_OBS=OFF)";
#else
  const TracingOn guard;
  const ccmx::obs::Counter calls("linalg.exact.calls");
  const ccmx::obs::Counter primes("linalg.exact.primes");
  const ccmx::obs::Counter bounded("linalg.exact.bounded");
  const ccmx::obs::Counter residue("linalg.exact.cert.residue");
  const ccmx::obs::Counter kernel_vector("linalg.exact.cert.kernel_vector");
  Xoshiro256 rng(5);
  IntMatrix m = random_box(12, 12, 1000, rng);
  while (ccmx::la::det_bareiss(m).is_zero()) m = random_box(12, 12, 1000, rng);
  EXPECT_FALSE(ccmx::la::is_singular(m));
  EXPECT_EQ(calls.value(), 1u);
  EXPECT_EQ(primes.value(), 1u);
  EXPECT_EQ(bounded.value(), 0u);
  EXPECT_EQ(residue.value(), 1u);

  // diag(p1, 1, ...): one prime short of full rank, the second settles it.
  const std::uint64_t p1 = ccmx::la::next_ladder_prime(0);
  IntMatrix ladder = IntMatrix::identity(4, BigInt(1));
  ladder(0, 0) = BigInt(static_cast<std::int64_t>(p1));
  EXPECT_EQ(ccmx::la::rank(ladder), 4u);
  EXPECT_EQ(calls.value(), 2u);
  EXPECT_EQ(primes.value(), 3u);
  EXPECT_EQ(bounded.value(), 0u);

  // A zero column: deficient, settled by the stop rule after one prime,
  // before any lifting.
  for (std::size_t i = 0; i < 12; ++i) m(i, 3) = BigInt(0);
  EXPECT_TRUE(ccmx::la::is_singular(m));
  EXPECT_EQ(calls.value(), 3u);
  EXPECT_EQ(primes.value(), 4u);
  EXPECT_EQ(bounded.value(), 1u);
  EXPECT_EQ(residue.value(), 1u);
  EXPECT_EQ(kernel_vector.value(), 0u);

  // Rank 2 of 12: the Hadamard bound on 3-minors needs more than one prime.
  const IntMatrix low = ccmx::la::map_matrix<BigInt>(
      product_of_rank(12, 12, 2, rng),
      [](const BigInt& v) { return v * BigInt::pow2(40); });
  EXPECT_EQ(ccmx::la::rank(low), 2u);
  EXPECT_EQ(calls.value(), 4u);
  EXPECT_GT(primes.value(), 5u);
  EXPECT_EQ(bounded.value(), 2u);
#endif
}

/// A lower bound on rank(m) that does not use the engine: its rank modulo
/// 2^61 - 1, a prime below the ladder.
std::size_t rank_below_ladder(const IntMatrix& m) {
  const std::uint64_t q = (std::uint64_t{1} << 61) - 1;
  return ccmx::la::rank_mod_p(ccmx::la::reduce_mod(m, q), q);
}

/// rows x cols of rank r exactly, with dense factors of entries in
/// [-mag, mag]; the rank is checked independently of the engine.
IntMatrix dense_product(std::size_t rows, std::size_t cols, std::size_t r,
                        std::int64_t mag, Xoshiro256& rng) {
  const IntMatrix m =
      random_box(rows, r, mag, rng) * random_box(r, cols, mag, rng);
  EXPECT_EQ(rank_below_ladder(m), r);  // and at most r, by its factors
  return m;
}

TEST(ExactEngineWitness, FullRankAndEmptyCertificates) {
  Xoshiro256 rng(41);
  const RankCertificate full =
      ccmx::la::rank_certificate(dense_product(9, 6, 6, 5, rng));
  EXPECT_EQ(full.rank, 6u);
  EXPECT_EQ(full.path, RankPath::kFullRank);
  EXPECT_EQ(full.primes,
            std::vector<std::uint64_t>{ccmx::la::next_ladder_prime(0)});
  const RankCertificate empty = ccmx::la::rank_certificate(IntMatrix(0, 4));
  EXPECT_EQ(empty.rank, 0u);
  EXPECT_TRUE(empty.primes.empty());
}

TEST(ExactEngineWitness, FalseDropThatLiftsFallsBackToTheLadder) {
  // [B 0; 0 D] with det B = p1 exactly, B = [[2^31, 1], [2^31 d - p1, d]]
  // for d = ceil(p1 / 2^31), and D of rank 61.  The first prime sees rank
  // 1 + 61; B's free column lifts to the vector (-1, 2^31), which solves
  // the pivot row of B but not its other row.
  const std::uint64_t p1 = ccmx::la::next_ladder_prime(0);
  const std::int64_t two31 = std::int64_t{1} << 31;
  const auto d = static_cast<std::int64_t>((p1 + two31 - 1) /
                                           static_cast<std::uint64_t>(two31));
  IntMatrix m(64, 64);
  m(0, 0) = BigInt(two31);
  m(0, 1) = BigInt(1);
  m(1, 0) = BigInt(two31 * d - static_cast<std::int64_t>(p1));
  m(1, 1) = BigInt(d);
  ASSERT_EQ(m(0, 0) * m(1, 1) - m(0, 1) * m(1, 0),
            BigInt(static_cast<std::int64_t>(p1)));
  Xoshiro256 rng(42);
  m.set_block(2, 2, dense_product(62, 62, 61, 2, rng));
#ifndef CCMX_OBS_DISABLED
  const TracingOn guard;
  const ccmx::obs::Counter lifted("linalg.exact.lifted");
  const ccmx::obs::Counter steps("linalg.exact.lift_steps");
#endif
  const RankCertificate cert = ccmx::la::rank_certificate(m);
  EXPECT_EQ(cert.rank, 63u);
  EXPECT_EQ(cert.path, RankPath::kLadder);
  EXPECT_GT(cert.primes.size(), 1u);
  EXPECT_TRUE(cert.kernel.empty());
#ifndef CCMX_OBS_DISABLED
  EXPECT_EQ(lifted.value(), 0u);
  EXPECT_GT(steps.value(), 0u);  // the cost model chose to lift first
#endif
  // is_singular lifts the same first free column, sees the same false drop
  // and climbs from the second prime to the stop rule at rank 63.
  const SingularityCertificate sc = checked_singularity(m);
  EXPECT_TRUE(sc.singular);
  EXPECT_EQ(sc.path, SingularPath::kBounded);
  EXPECT_EQ(sc.rank, 63u);
  EXPECT_EQ(sc.primes, cert.primes);
  // b = m (1, ..., 1) uses B's second column, outside the first prime's
  // pivots: its lifted vector is a false drop too, so both ranks are
  // certified.
  const std::vector<BigInt> b =
      ccmx::la::multiply(m, std::vector<BigInt>(64, BigInt(1)));
  const SolvabilityCertificate c = checked_solvability(m, b);
  EXPECT_TRUE(c.solvable);
  EXPECT_EQ(c.path, SolvablePath::kRanks);
  EXPECT_EQ(c.a_rank.rank, 63u);
}

TEST(ExactEngineWitness, NullityOneAndTwoProductsLiftWhenTheLadderIsLong) {
  Xoshiro256 rng(43);
  for (const std::size_t nullity : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(nullity);
    const IntMatrix m = dense_product(64, 64, 64 - nullity, 9, rng);
    const RankCertificate cert = ccmx::la::rank_certificate(m);
    EXPECT_EQ(cert.rank, 64 - nullity);
    EXPECT_EQ(cert.path, RankPath::kKernel);
    EXPECT_EQ(cert.primes.size(), 1u);
    EXPECT_TRUE(certificate_holds(m, cert));
  }
}

TEST(ExactEngineWitness, NullityOneAndTwoProductsWithAShortLadderStayOnIt) {
  // L R with L = [I; S], R = [I | C]: rows 2t and 2t+1 of C agree, and row
  // t of S is e_2t - e_2t+1, so S C = 0.  Every line has norm at most
  // sqrt 2: the ladder needs one prime more, which costs less than lifting.
  constexpr std::size_t n = 64;
  for (const std::size_t nullity : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(nullity);
    const std::size_t r = n - nullity;
    IntMatrix left(n, r), right(r, n);
    for (std::size_t i = 0; i < r; ++i) {
      left(i, i) = BigInt(1);
      right(i, i) = BigInt(1);
    }
    for (std::size_t t = 0; t < nullity; ++t) {
      left(r + t, 2 * t) = BigInt(1);
      left(r + t, 2 * t + 1) = BigInt(-1);
      right(2 * t, r + t) = BigInt(1);
      right(2 * t + 1, r + t) = BigInt(1);
    }
    const IntMatrix m = left * right;
    ASSERT_EQ(rank_below_ladder(m), r);
    const RankCertificate cert = ccmx::la::rank_certificate(m);
    EXPECT_EQ(cert.rank, r);
    EXPECT_EQ(cert.path, RankPath::kLadder);
    EXPECT_EQ(cert.primes.size(), 2u);
  }
}

TEST(ExactEngineWitness, EntriesAtTheWordCapLiftAndOneBitPastDoNot) {
  // Rank 31 of 32: lifting needs bits + ceil(log2 31) + 62 < 127, so 59-bit
  // entries are the widest it takes.  With entries all close to the cap
  // and digits in [0, p), the residual sums pass 2^123, within a few bits
  // of the 2^126 the cap allows.
  Xoshiro256 rng(44);
  const auto near_uniform = [&](std::size_t rows, std::size_t cols) {
    return IntMatrix::generate(rows, cols, [&](std::size_t, std::size_t) {
      return BigInt(rng.range(7, 9));
    });
  };
  const IntMatrix base = near_uniform(32, 31) * near_uniform(31, 32);
  ASSERT_EQ(rank_below_ladder(base), 31u);
  std::size_t widest = 0;
  for (const BigInt& v : base.data()) widest = std::max(widest, v.bit_length());
  for (const std::size_t bits : {std::size_t{59}, std::size_t{60}}) {
    SCOPED_TRACE(bits);
    const BigInt scale =
        BigInt::pow2(static_cast<unsigned>(bits - widest));
    const IntMatrix m = ccmx::la::map_matrix<BigInt>(
        base, [&](const BigInt& v) { return v * scale; });
    const RankCertificate cert = ccmx::la::rank_certificate(m);
    EXPECT_EQ(cert.rank, 31u);
    EXPECT_EQ(cert.path, bits == 59 ? RankPath::kKernel : RankPath::kLadder);
    EXPECT_TRUE(certificate_holds(m, cert));
  }
}

TEST(ExactEngineWitness, ZeroColumnsAndRectangularShapes) {
  Xoshiro256 rng(45);
  // A zero column is never a pivot: its witness is the unit vector.
  IntMatrix zero_col = dense_product(48, 48, 46, 9, rng);
  for (std::size_t i = 0; i < 48; ++i) zero_col(i, 5) = BigInt(0);
  ASSERT_EQ(rank_below_ladder(zero_col), 46u);
  const RankCertificate cert = ccmx::la::rank_certificate(zero_col);
  EXPECT_EQ(cert.rank, 46u);
  EXPECT_EQ(cert.path, RankPath::kKernel);
  EXPECT_TRUE(certificate_holds(zero_col, cert));
  const auto at = std::find(cert.free_cols.begin(), cert.free_cols.end(), 5);
  ASSERT_NE(at, cert.free_cols.end());
  const std::vector<BigInt>& unit =
      cert.kernel[static_cast<std::size_t>(at - cert.free_cols.begin())];
  for (std::size_t j = 0; j < 48; ++j) {
    EXPECT_EQ(unit[j], BigInt(j == 5 ? 1 : 0));
  }
  // Tall and wide, one and five kernel vectors.
  for (const auto& [rows, cols] : std::vector<std::pair<std::size_t, std::size_t>>{
           {56, 48}, {48, 52}}) {
    SCOPED_TRACE(testing::Message() << rows << "x" << cols);
    const IntMatrix m = dense_product(rows, cols, 47, 9, rng);
    const RankCertificate c = ccmx::la::rank_certificate(m);
    EXPECT_EQ(c.rank, 47u);
    EXPECT_EQ(c.path, RankPath::kKernel);
    EXPECT_TRUE(certificate_holds(m, c));
  }
}

TEST(ExactEngineCounters, KernelWitnessCountsOneLiftedCallAndItsSteps) {
#ifdef CCMX_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out (CCMX_OBS=OFF)";
#else
  const TracingOn guard;
  const ccmx::obs::Counter calls("linalg.exact.calls");
  const ccmx::obs::Counter primes("linalg.exact.primes");
  const ccmx::obs::Counter bounded("linalg.exact.bounded");
  const ccmx::obs::Counter lifted("linalg.exact.lifted");
  const ccmx::obs::Counter steps("linalg.exact.lift_steps");
  Xoshiro256 rng(46);
  const IntMatrix m = dense_product(64, 64, 63, 9, rng);
  EXPECT_EQ(ccmx::la::rank(m), 63u);
  EXPECT_EQ(calls.value(), 1u);
  EXPECT_EQ(primes.value(), 1u);
  EXPECT_EQ(bounded.value(), 0u);
  EXPECT_EQ(lifted.value(), 1u);
  EXPECT_GT(steps.value(), 1u);
#endif
}

TEST(ExactEngineCounters, EachDecisionCountsOneCallAndItsCertificate) {
#ifdef CCMX_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out (CCMX_OBS=OFF)";
#else
  const TracingOn guard;
  const ccmx::obs::Counter calls("linalg.exact.calls");
  const ccmx::obs::Counter primes("linalg.exact.primes");
  const ccmx::obs::Counter bounded("linalg.exact.bounded");
  const ccmx::obs::Counter lifted("linalg.exact.lifted");
  const ccmx::obs::Counter steps("linalg.exact.lift_steps");
  const ccmx::obs::Counter kernel_vector("linalg.exact.cert.kernel_vector");
  const ccmx::obs::Counter solution("linalg.exact.cert.solution");
  const ccmx::obs::Counter b_pivot("linalg.exact.cert.b_pivot");
  const ccmx::obs::Counter two_ranks("linalg.exact.cert.two_ranks");
  Xoshiro256 rng(47);
  // Nullity 1: one prime, one lifted vector (not a rank witness, so
  // lifted stays 0).
  const IntMatrix m = dense_product(64, 64, 63, 9, rng);
  EXPECT_TRUE(ccmx::la::is_singular(m));
  EXPECT_EQ(calls.value(), 1u);
  EXPECT_EQ(primes.value(), 1u);
  EXPECT_EQ(kernel_vector.value(), 1u);
  EXPECT_EQ(lifted.value(), 0u);
  const std::uint64_t one_lift = steps.value();
  EXPECT_GT(one_lift, 1u);
  // b in the column span: one elimination of [m | b], one lifted solution.
  const std::vector<BigInt> b =
      ccmx::la::multiply(m, std::vector<BigInt>(64, BigInt(1)));
  EXPECT_TRUE(ccmx::la::solvable(m, b));
  EXPECT_EQ(calls.value(), 2u);
  EXPECT_EQ(primes.value(), 2u);
  EXPECT_EQ(solution.value(), 1u);
  EXPECT_GT(steps.value(), one_lift);
  // An unsolvable Corollary 1.3 pair: b's pivot, and the stop rule on A
  // at the same prime, as A has a zero column.
  IntMatrix square = random_box(12, 12, 1000, rng);
  while (ccmx::la::det_bareiss(square).is_zero()) {
    square = random_box(12, 12, 1000, rng);
  }
  const auto pair = ccmx::core::corollary13_instance(square);
  EXPECT_FALSE(ccmx::la::solvable(pair.m_prime, pair.b));
  EXPECT_EQ(calls.value(), 3u);
  EXPECT_EQ(primes.value(), 3u);
  EXPECT_EQ(b_pivot.value(), 1u);
  EXPECT_EQ(bounded.value(), 1u);
  // diag(p1, 1, ..., 1) with b = e_0: b's pivot beside A's false drop, so
  // both ranks are certified: two more rank calls, each one prime short
  // of full rank at p1.
  const std::uint64_t p1 = ccmx::la::next_ladder_prime(0);
  IntMatrix diag = IntMatrix::identity(4, BigInt(1));
  diag(0, 0) = BigInt(static_cast<std::int64_t>(p1));
  std::vector<BigInt> e0(4, BigInt(0));
  e0[0] = BigInt(1);
  EXPECT_TRUE(ccmx::la::solvable(diag, e0));
  EXPECT_EQ(calls.value(), 6u);
  EXPECT_EQ(two_ranks.value(), 1u);
  EXPECT_EQ(solution.value() + b_pivot.value(), 2u);
#endif
}

}  // namespace
