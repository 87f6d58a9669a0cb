// Linear algebra over the prime field Z_p, 2 <= p < 2^62.
//
// This is the arithmetic the probabilistic protocols run: an agent reduces
// its half of the matrix mod a public random prime, ships the residues, and
// the receiver decides singularity / rank / solvability in Z_p.  The exact
// engine runs the same elimination modulo each ladder prime.  Plain
// Gaussian elimination on num::Zp — no fraction growth and no 128-bit
// division: each row update multiplies by a fixed factor with Shoup's
// precomputed quotient.  Every entry point throws contract_error for a
// modulus outside [2, 2^62).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bigint/modular.hpp"
#include "linalg/convert.hpp"

namespace ccmx::la {

/// det(m) mod p.  Requires square m with entries already reduced mod p.
[[nodiscard]] std::uint64_t det_mod_p(ModMatrix m, std::uint64_t p);

/// rank of m over Z_p.  Requires entries already reduced mod p.
[[nodiscard]] std::size_t rank_mod_p(ModMatrix m, std::uint64_t p);

/// Whether A x = b has a solution over Z_p, for m = [A | b] with entries
/// already reduced mod p.  One elimination: it does exactly when the last
/// column gets no pivot.
[[nodiscard]] bool solvable_mod_p(ModMatrix m, std::uint64_t p);

/// Solves m x = b over Z_p; nullopt when inconsistent.
[[nodiscard]] std::optional<std::vector<std::uint64_t>> solve_mod_p(
    ModMatrix m, std::vector<std::uint64_t> b, std::uint64_t p);

/// Product over Z_p.
[[nodiscard]] ModMatrix multiply_mod_p(const ModMatrix& a, const ModMatrix& b,
                                       std::uint64_t p);

/// Matrix-vector product over Z_p.
[[nodiscard]] std::vector<std::uint64_t> multiply_mod_p(
    const ModMatrix& a, const std::vector<std::uint64_t>& x, std::uint64_t p);

/// The row update of every Z_p elimination here (echelon, solve_mod_p and
/// the vlsi mesh): row dst -= factor * row src over columns [from, cols),
/// for factor < p and row dst reduced mod p.  Shoup's quotient for factor
/// is computed once per call.
void subtract_row_multiple(ModMatrix& m, std::size_t dst, std::size_t src,
                           std::uint64_t factor, std::size_t from,
                           const num::Zp& field);

}  // namespace ccmx::la
