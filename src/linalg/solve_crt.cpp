#include "linalg/solve_crt.hpp"

#include <cmath>

#include "linalg/crt.hpp"
#include "linalg/det.hpp"
#include "linalg/fp.hpp"
#include "linalg/rref.hpp"
#include "util/narrow.hpp"
#include "util/parallel.hpp"
#include "util/require.hpp"

namespace ccmx::la {

using num::BigInt;
using num::Rational;

std::optional<Rational> rational_reconstruct(const BigInt& value,
                                             const BigInt& modulus,
                                             const BigInt& bound) {
  CCMX_REQUIRE(modulus > BigInt(1), "modulus must exceed 1");
  CCMX_REQUIRE(bound > BigInt(0), "bound must be positive");
  const BigInt v = BigInt::mod_floor(value, modulus);
  // Wang's algorithm: run Euclid on (m, v), tracking the Bezout coefficient
  // of v; stop at the first remainder <= bound.
  BigInt r0 = modulus, r1 = v;
  BigInt t0(0), t1(1);
  while (!r1.is_zero() && r1 > bound) {
    const auto [q, rem] = BigInt::divmod(r0, r1);
    r0 = r1;
    r1 = rem;
    BigInt next_t = t0 - q * t1;
    t0 = t1;
    t1 = std::move(next_t);
  }
  if (t1.is_zero()) return std::nullopt;
  BigInt num = r1, den = t1;
  if (den.is_negative()) {
    num = -num;
    den = -den;
  }
  if (den > bound || num.abs() > bound) return std::nullopt;
  if (BigInt::gcd(num, den) != BigInt(1)) return std::nullopt;
  // Safety: num ≡ value * den (mod modulus).
  if (!BigInt::mod_floor(num - v * den, modulus).is_zero()) {
    return std::nullopt;
  }
  return Rational(num, den);
}

namespace {

std::size_t max_entry_bits(const IntMatrix& a, const std::vector<BigInt>& b) {
  std::size_t bits = 1;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      bits = std::max(bits, a(i, j).bit_length());
    }
  }
  for (const BigInt& v : b) bits = std::max(bits, v.bit_length());
  return bits;
}

}  // namespace

std::optional<std::vector<Rational>> solve_crt(const IntMatrix& a,
                                               const std::vector<BigInt>& b) {
  CCMX_REQUIRE(a.is_square(), "solve_crt needs a square system");
  CCMX_REQUIRE(b.size() == a.rows(), "solve_crt shape mismatch");
  const std::size_t n = a.rows();
  if (n == 0) return std::vector<Rational>{};

  // Cramer bound: numerators and denominator are determinants of matrices
  // with entries of `k` bits, so both are below 2^H with H = Hadamard bits.
  const auto k = util::narrow_cast<unsigned>(max_entry_bits(a, b) + 1);
  const std::size_t h_bits = hadamard_det_bits(n, k) + 1;
  // Reconstruction needs 2 * bound^2 < modulus: ~2H + 2 bits of primes.
  const std::size_t needed_bits = 2 * h_bits + 4;
  const std::size_t good_needed = needed_bits / kLadderPrimeBits + 1;
  // det != 0 has at most h_bits/61 + 1 prime factors in the ladder; seeing
  // more zero-determinant primes proves singularity.
  const std::size_t max_bad = h_bits / kLadderPrimeBits + 1;

  std::vector<std::uint64_t> good_primes;
  std::vector<std::vector<std::uint64_t>> solutions;
  std::size_t bad = 0;
  std::uint64_t p = 0;
  while (good_primes.size() < good_needed) {
    p = next_ladder_prime(p);
    const ModMatrix reduced = reduce_mod(a, p);
    if (det_mod_p(reduced, p) == 0) {
      if (++bad > max_bad) return std::nullopt;  // provably singular
      continue;
    }
    std::vector<std::uint64_t> rhs(n);
    for (std::size_t i = 0; i < n; ++i) {
      rhs[i] = b[i].mod_floor_u64(p);
    }
    auto solution = solve_mod_p(reduced, std::move(rhs), p);
    CCMX_ASSERT(solution.has_value());  // nonsingular mod p
    good_primes.push_back(p);
    solutions.push_back(std::move(*solution));
  }

  // CRT-combine each coordinate (coordinates are independent: shard them).
  const BigInt bound = BigInt::pow2(util::narrow_cast<unsigned>(h_bits));
  std::vector<std::optional<Rational>> recovered(n);
  util::parallel_for(0, n, [&](std::size_t j) {
    CrtFold fold;
    for (std::size_t i = 0; i < good_primes.size(); ++i) {
      fold.add(solutions[i][j], good_primes[i]);
    }
    recovered[j] = rational_reconstruct(fold.value(), fold.modulus(), bound);
  });

  std::vector<Rational> x;
  x.reserve(n);
  bool all_recovered = true;
  for (const auto& r : recovered) {
    if (!r) {
      all_recovered = false;
      break;
    }
    x.push_back(*r);
  }
  if (all_recovered) {
    // Exact verification: A x == b.
    const auto ax = multiply(to_rational(a), x);
    bool verified = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (ax[i] != Rational(b[i])) {
        verified = false;
        break;
      }
    }
    if (verified) return x;
  }
  // Fallback (should not trigger with the Cramer sizing): exact RREF solve.
  std::vector<Rational> rhs;
  rhs.reserve(n);
  for (const BigInt& v : b) rhs.emplace_back(v);
  return la::solve(to_rational(a), rhs);
}

}  // namespace ccmx::la
