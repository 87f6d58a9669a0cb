// Exact rational solutions by p-adic lifting (Dixon, "Exact solution of
// linear equations using p-adic expansions", Numer. Math. 40 (1982)
// 137-141), and the pieces the exact rank engine shares with it.
//
// One elimination modulo a prime p (echelon, linalg/fp.hpp) factors the
// pivot block B = A[I, J] as L U mod p.  Lifting then solves B Y = R one
// p-adic digit at a time: Y_k = B^{-1} R_k mod p through the stored
// factors, and R_{k+1} = (R_k - B Y_k) / p exactly, in __int128.  A step
// costs O(r^2) per right-hand side, against O(n^3) for another
// elimination.  Wang's rational reconstruction, with one common
// denominator per column, turns the digits into integer vectors; each
// candidate is checked exactly over Z before it is returned.  The Cramer
// and Hadamard bounds cap the number of steps: every numerator and
// denominator of Y is an r x r minor of [A | R].
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "bigint/rational.hpp"
#include "linalg/convert.hpp"
#include "linalg/fp.hpp"

namespace ccmx::la {

/// An integer matrix whose entries all have absolute value < 2^63.
using WordMatrix = Matrix<std::int64_t>;

/// m as words, with the largest entry bit length, when every entry fits.
struct Words {
  WordMatrix m;
  std::size_t entry_bits = 0;
};

/// m as words; nullopt when an entry has more than 63 bits.
[[nodiscard]] std::optional<Words> to_words(const IntMatrix& m);
/// [a | b] as words, read straight from a and b; nullopt when an entry has
/// more than 63 bits.
[[nodiscard]] std::optional<Words> to_words(const IntMatrix& a,
                                            const std::vector<num::BigInt>& b);

/// Words reduced mod p, in [0, p).
[[nodiscard]] ModMatrix reduce_words(const WordMatrix& m,
                                     const num::Zp& field);

/// Rational reconstruction: the unique p/q with value ≡ p q^{-1} (mod m),
/// |p| <= bound, 0 < q <= bound, gcd(q, m) = 1 — provided 2*bound^2 < m.
/// nullopt if no such pair exists.
[[nodiscard]] std::optional<num::Rational> rational_reconstruct(
    const num::BigInt& value, const num::BigInt& modulus,
    const num::BigInt& bound);

/// Hadamard bounds on the minors of the first `cols` columns of a matrix:
/// bits(s) bounds log2 |det| of every s x s minor, as the smaller of the
/// sums of the s largest column and row norm bits (each
/// ceil(bits(||line||^2) / 2)).  0 when fewer than s lines are nonzero, as
/// every such minor then has a zero line.
class MinorBound {
 public:
  MinorBound(const IntMatrix& m, std::size_t cols);
  MinorBound(const WordMatrix& m, std::size_t cols);

  [[nodiscard]] std::size_t bits(std::size_t order) const;

 private:
  std::vector<std::size_t> cols_;  // largest first
  std::vector<std::size_t> rows_;
};

/// Whether lifting over words with entry_bits-bit entries and r pivots
/// keeps every residual inside __int128: entry_bits + ceil(log2 r) + 62
/// < 127.
[[nodiscard]] bool lifting_fits(std::size_t entry_bits, std::size_t r);

/// Predicted work, in lifting operations, to lift and check the kernel of
/// a rows x cols matrix of rank r whose r x r minors have at most
/// minor_bits bits: 2 r^2 + 1 per kernel vector and step up to the step
/// cap, the limb work to build and check each vector, and a fixed cost
/// per vector.
[[nodiscard]] std::uint64_t predicted_lift_work(std::size_t rows,
                                                std::size_t cols,
                                                std::size_t r,
                                                std::size_t minor_bits);

/// Kernel vectors of A from the first prime's elimination.
struct KernelLift {
  enum class Outcome {
    kVerified,   // every vector passed the exact check
    kFalseDrop,  // a vector solves the pivot rows but not A: rank > r
    kFailed,     // no candidate verified within the step cap
  };
  Outcome outcome = Outcome::kFailed;
  /// For kVerified, one vector per column f of free_cols, in order:
  /// A x = 0 over Z, x[f] = d > 0, and x is 0 on every column that is
  /// neither f nor a pivot.
  std::vector<std::vector<num::BigInt>> vectors;
  std::vector<std::size_t> free_cols;
  std::size_t steps = 0;  // lifting steps taken
};

/// Lifts one kernel vector of a for each column f of free_cols, none of
/// them a pivot, given lu and e from echelon(a mod p) and a bound
/// minor_bits on a's r x r minors (r = e.rank; e may cover only a prefix
/// of a's columns, its pivots then being that prefix's).  For each f it
/// solves A[I, J] y = -A[I, f], reconstructs x = (d y on J, d at f), and
/// checks A x = 0 exactly.  Requires lifting_fits(words.entry_bits, r) and
/// an odd p.
[[nodiscard]] KernelLift lift_kernel(const Words& words, const ModMatrix& lu,
                                     const Echelon& e, const num::Zp& field,
                                     std::size_t minor_bits,
                                     std::vector<std::size_t> free_cols);

/// Solves a x = b exactly for square a; nullopt iff a is singular.  Lifts
/// the kernel vector of [a | b] at b's column, modulo the first ladder
/// prime at which a is nonsingular: x = -(its a part) / (its b entry).
/// Entries too wide for lifting_fits go to rational Gauss-Jordan
/// (la::solve).
[[nodiscard]] std::optional<std::vector<num::Rational>> solve_lifted(
    const IntMatrix& a, const std::vector<num::BigInt>& b);

}  // namespace ccmx::la
