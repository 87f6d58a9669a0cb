// Linear algebra over the prime field Z_p, 2 <= p < 2^62.
//
// This is the arithmetic the probabilistic protocols run: an agent reduces
// its half of the matrix mod a public random prime, ships the residues, and
// the receiver decides singularity / rank / solvability in Z_p.  The exact
// engine runs the same elimination modulo each ladder prime, and lifts
// from its factors (linalg/lift.hpp).  One Gaussian elimination, echelon,
// serves them all: no fraction growth and no 128-bit division, because
// each row update multiplies by a fixed factor with Shoup's precomputed
// quotient.  Every entry point throws contract_error for a modulus outside
// [2, 2^62).
#pragma once

#include <cstdint>
#include <vector>

#include "bigint/modular.hpp"
#include "linalg/convert.hpp"

namespace ccmx::la {

/// What echelon(m) leaves besides the reduced matrix.  Afterwards
/// P A = L U mod p, where A is the input, P takes input row row_order[i] to
/// row i, and both factors sit in m:
/// - U: for i < rank, m(i, j) with j >= pivot_cols[i] (zero left of it);
/// - L: unit lower triangular, with L(i, k) = m(i, pivot_cols[k]) for every
///   pivot k < min(i, rank): the multiplier that zeroed that cell, stored
///   in it.  Every other cell left of a row's pivot (or in a row past the
///   rank) is zero.
struct Echelon {
  std::size_t rank = 0;
  std::uint64_t det = 1;  // det(A) mod p, for square inputs
  std::vector<std::size_t> pivot_cols;  // increasing, one per pivot row
  std::vector<std::size_t> row_order;   // a permutation of the input rows
  std::uint64_t updates = 0;  // element updates made: the work, counted
};

/// Gaussian elimination of m over Z_p, in place, keeping the factors (see
/// Echelon).  Requires entries already reduced mod p.  The one Z_p
/// elimination loop: every function below that eliminates calls it.
[[nodiscard]] Echelon echelon(ModMatrix& m, const num::Zp& field);

/// det(m) mod p.  Requires square m with entries already reduced mod p.
[[nodiscard]] std::uint64_t det_mod_p(ModMatrix m, std::uint64_t p);

/// rank of m over Z_p.  Requires entries already reduced mod p.
[[nodiscard]] std::size_t rank_mod_p(ModMatrix m, std::uint64_t p);

/// Whether A x = b has a solution over Z_p, for m = [A | b] with entries
/// already reduced mod p.  One elimination: it does exactly when the last
/// column gets no pivot.
[[nodiscard]] bool solvable_mod_p(ModMatrix m, std::uint64_t p);

/// Product over Z_p.
[[nodiscard]] ModMatrix multiply_mod_p(const ModMatrix& a, const ModMatrix& b,
                                       std::uint64_t p);

/// The row update of every Z_p elimination here (echelon and the vlsi
/// mesh): row dst -= factor * row src over columns [from, cols),
/// for factor < p and row dst reduced mod p.  Shoup's quotient for factor
/// is computed once per call.
void subtract_row_multiple(ModMatrix& m, std::size_t dst, std::size_t src,
                           std::uint64_t factor, std::size_t from,
                           const num::Zp& field);

}  // namespace ccmx::la
