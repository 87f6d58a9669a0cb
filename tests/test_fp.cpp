// Z_p linear algebra vs exact arithmetic.
#include <gtest/gtest.h>

#include "bigint/modular.hpp"
#include "linalg/det.hpp"
#include "linalg/fp.hpp"
#include "linalg/rref.hpp"
#include "util/rng.hpp"

namespace {

using ccmx::la::IntMatrix;
using ccmx::la::ModMatrix;
using ccmx::num::BigInt;
using ccmx::util::Xoshiro256;

constexpr std::uint64_t kPrime = 1000000007ull;

IntMatrix random_matrix(std::size_t r, std::size_t c, Xoshiro256& rng) {
  return IntMatrix::generate(r, c, [&](std::size_t, std::size_t) {
    return BigInt(rng.range(-20, 20));
  });
}

TEST(DetModP, MatchesExactDeterminant) {
  Xoshiro256 rng(1);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 1 + rng.below(6);
    const IntMatrix m = random_matrix(n, n, rng);
    const BigInt det = ccmx::la::det_bareiss(m);
    const std::uint64_t expected =
        det.is_negative() && det.mod_u64(kPrime) != 0
            ? kPrime - det.mod_u64(kPrime)
            : det.mod_u64(kPrime);
    EXPECT_EQ(ccmx::la::det_mod_p(ccmx::la::reduce_mod(m, kPrime), kPrime),
              expected);
  }
}

TEST(DetModP, SingularStaysZero) {
  Xoshiro256 rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    IntMatrix m = random_matrix(4, 4, rng);
    for (std::size_t i = 0; i < 4; ++i) m(i, 3) = m(i, 0);
    EXPECT_EQ(ccmx::la::det_mod_p(ccmx::la::reduce_mod(m, kPrime), kPrime), 0u);
  }
}

TEST(RankModP, LargePrimeMatchesRationalRank) {
  Xoshiro256 rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t r = 1 + rng.below(6);
    const std::size_t c = 1 + rng.below(6);
    const IntMatrix m = random_matrix(r, c, rng);
    // Entries are < 20, so rank can only drop mod p for p | a minor; the
    // prime is far larger than any minor of these matrices.
    EXPECT_EQ(ccmx::la::rank_mod_p(ccmx::la::reduce_mod(m, kPrime), kPrime),
              ccmx::la::rank(m));
  }
}

TEST(RankModP, SmallPrimeCanOnlyDropRank) {
  Xoshiro256 rng(4);
  for (int trial = 0; trial < 30; ++trial) {
    const IntMatrix m = random_matrix(5, 5, rng);
    for (const std::uint64_t p : {2ull, 3ull, 5ull}) {
      EXPECT_LE(ccmx::la::rank_mod_p(ccmx::la::reduce_mod(m, p), p),
                ccmx::la::rank(m));
    }
  }
}

TEST(SolveModP, RoundTrip) {
  Xoshiro256 rng(5);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 2 + rng.below(5);
    ModMatrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.below(kPrime);
    }
    std::vector<std::uint64_t> x(n);
    for (auto& v : x) v = rng.below(kPrime);
    const auto b = ccmx::la::multiply_mod_p(a, x, kPrime);
    const auto sol = ccmx::la::solve_mod_p(a, b, kPrime);
    ASSERT_TRUE(sol.has_value());
    EXPECT_EQ(ccmx::la::multiply_mod_p(a, *sol, kPrime), b);
  }
}

TEST(SolveModP, DetectsInconsistency) {
  // [[1,1],[1,1]] x = (0,1) has no solution mod any p > 1.
  ModMatrix a(2, 2, 1);
  EXPECT_FALSE(ccmx::la::solve_mod_p(a, {0, 1}, kPrime).has_value());
  EXPECT_TRUE(ccmx::la::solve_mod_p(a, {1, 1}, kPrime).has_value());
}

TEST(MultiplyModP, MatchesExactProduct) {
  Xoshiro256 rng(6);
  const IntMatrix a = random_matrix(4, 3, rng);
  const IntMatrix b = random_matrix(3, 5, rng);
  const IntMatrix exact = a * b;
  EXPECT_EQ(ccmx::la::multiply_mod_p(ccmx::la::reduce_mod(a, kPrime),
                                     ccmx::la::reduce_mod(b, kPrime), kPrime),
            ccmx::la::reduce_mod(exact, kPrime));
}

TEST(SolvableModP, OneEliminationMatchesTheRankComparison) {
  // [A | b] is consistent exactly when rank A = rank [A | b]; A often
  // rank deficient (small primes, repeated rows) and b in or out of its span.
  Xoshiro256 rng(7);
  for (const std::uint64_t p : {std::uint64_t{2}, std::uint64_t{3},
                                std::uint64_t{5}, std::uint64_t{7}, kPrime}) {
    for (int trial = 0; trial < 40; ++trial) {
      const std::size_t rows = 1 + rng.below(5);
      const std::size_t cols = 2 + rng.below(5);
      ModMatrix m(rows, cols);
      for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.below(p);
      }
      if (rows > 1 && rng.below(2) == 0) {
        for (std::size_t j = 0; j + 1 < cols; ++j) m(rows - 1, j) = m(0, j);
      }
      const ModMatrix a = m.block(0, 0, rows, cols - 1);
      EXPECT_EQ(ccmx::la::solvable_mod_p(m, p),
                ccmx::la::rank_mod_p(a, p) == ccmx::la::rank_mod_p(m, p))
          << p << "\n" << m;
    }
  }
}

TEST(MultiplyModP, NearTheTopOfTheModulusRange) {
  // One reduction per term: no intermediate sum may wrap, even for the
  // largest allowed prime and entries at p - 1 or above p.
  std::uint64_t p = (std::uint64_t{1} << 62) - 1;
  while (!ccmx::num::is_prime(p)) --p;
  const ModMatrix row{{p - 1, p - 1}};
  const ModMatrix col{{2}, {2}};
  EXPECT_EQ(ccmx::la::multiply_mod_p(row, col, p)(0, 0), p - 4);
  EXPECT_EQ(ccmx::la::multiply_mod_p(row, std::vector<std::uint64_t>{2, 2},
                                     p)[0],
            p - 4);
  Xoshiro256 rng(8);
  ModMatrix a(3, 4), b(4, 2);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 4; ++j) a(i, j) = rng();  // not reduced
  }
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 2; ++j) b(i, j) = rng();
  }
  const ModMatrix product = ccmx::la::multiply_mod_p(a, b, p);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      std::uint64_t expected = 0;
      for (std::size_t k = 0; k < 4; ++k) {
        expected = (expected + ccmx::num::mulmod(a(i, k), b(k, j), p)) % p;
      }
      EXPECT_EQ(product(i, j), expected);
    }
  }
}

}  // namespace
