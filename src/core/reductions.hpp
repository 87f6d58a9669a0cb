// The paper's reductions: Corollary 1.2 (determinant, rank, QR, SVD, LUP all
// inherit the Theta(k n^2) bound from singularity), Corollary 1.3 (linear
// system solvability), the Section 1 Lin-Wu construction (A B = C iff
// [[I, B], [A, C]] has rank n), the Section 3 padding argument (general m
// reduces to 2n x 2n with n odd), and the Lovasz-Saks vector-space span
// problem.
#pragma once

#include <cstdint>

#include "core/construction.hpp"
#include "linalg/convert.hpp"

namespace ccmx::core {

// --- Corollary 1.2: each richer output determines singularity -------------
// A protocol computing any of these outputs yields a singularity protocol at
// +O(1) bits; these functions are the "read off the answer" step, each via a
// different exact decomposition.  They must all agree (tested).

[[nodiscard]] bool singular_via_determinant(const la::IntMatrix& m);
[[nodiscard]] bool singular_via_rank(const la::IntMatrix& m);
[[nodiscard]] bool singular_via_qr(const la::IntMatrix& m);
[[nodiscard]] bool singular_via_svd(const la::IntMatrix& m);
[[nodiscard]] bool singular_via_lup(const la::IntMatrix& m);
/// "Computing the range" (Section 1): the canonical column span has fewer
/// than n basis vectors iff M is singular.
[[nodiscard]] bool singular_via_range(const la::IntMatrix& m);
/// Integer canonical forms (extensions beyond the paper's list — same
/// reduction shape): HNF / SNF diagonal structure decides singularity.
[[nodiscard]] bool singular_via_hermite(const la::IntMatrix& m);
[[nodiscard]] bool singular_via_smith(const la::IntMatrix& m);

// --- Corollary 1.3: solvability of A x = b --------------------------------

/// Exact solvability of A x = b over Q: rank(A) == rank([A | b]), both on
/// the modular rank engine (la::rank).
[[nodiscard]] bool solvable(const la::IntMatrix& a,
                            const std::vector<num::BigInt>& b);

/// The corollary's instance map: from the restricted M (Fig. 1), b is M's
/// first column and M' is M with that column zeroed; then
/// "M singular" == "M' x = b solvable".
struct SolvabilityInstance {
  la::IntMatrix m_prime;           // M with column 0 zeroed
  std::vector<num::BigInt> b;      // original column 0
};
[[nodiscard]] SolvabilityInstance corollary13_instance(const la::IntMatrix& m);

// --- Section 1: Lin-Wu rank reduction --------------------------------------

/// M = [[I, B], [A, C]] (2n x 2n).
[[nodiscard]] la::IntMatrix linwu_matrix(const la::IntMatrix& a,
                                         const la::IntMatrix& b,
                                         const la::IntMatrix& c);

/// rank(linwu_matrix) == n + rank(C - A B); equality A B == C iff rank n.
[[nodiscard]] bool product_equals_via_rank(const la::IntMatrix& a,
                                           const la::IntMatrix& b,
                                           const la::IntMatrix& c);

// --- Section 3: padding to 2n x 2n, n odd ----------------------------------

/// Embeds an arbitrary square M' into the smallest 2n x 2n matrix with n odd
/// by appending a unit diagonal: det is preserved, so singularity transfers
/// both ways.  (The paper runs the same construction in reverse to restrict
/// inputs; embedding is the executable direction.)
[[nodiscard]] la::IntMatrix pad_to_odd_2n(const la::IntMatrix& m);

/// The n used by pad_to_odd_2n (smallest odd n with 2n >= m.rows()).
[[nodiscard]] std::size_t padded_half_dimension(std::size_t m_rows);

// --- Section 1: vector space span problem (Lovasz-Saks) --------------------

/// Given two generator sets (columns of g1, g2) in Z^dim, decide whether
/// their union spans the whole space — the paper notes Theorem 1.1 settles
/// the unrestricted CC of this problem for k-bit integer vectors.
[[nodiscard]] bool union_spans_space(const la::IntMatrix& g1,
                                     const la::IntMatrix& g2);

/// The reduction direction used in the paper: M (2n x 2n) is nonsingular iff
/// the two column-halves of M jointly span Z^{2n}; so span testing under
/// pi_0 is at least as hard as singularity.
[[nodiscard]] bool singular_via_span_problem(const la::IntMatrix& m);

}  // namespace ccmx::core
