// Reduced row echelon form over the rationals, and everything that falls
// out of it: rank, nullspace, linear solves, span membership / equality.
// Rational Gauss-Jordan is the exact oracle the tests check the modular
// engine against, and the engine for callers that need a solution vector
// or a span (in_column_span, the Lemma 3.4 span census); the exact rank of
// an integer matrix is the modular engine's job (linalg/exact.cpp).
//
// Span equality via canonical RREF is the comparison the reproduction of
// Lemma 3.4 uses ("distinct instances of C yield distinct vector spaces"):
// two column spans are equal iff the RREFs of the transposed generators
// coincide.
#pragma once

#include <optional>
#include <vector>

#include "linalg/convert.hpp"

namespace ccmx::la {

struct RrefResult {
  RatMatrix rref;                        // the reduced form
  std::vector<std::size_t> pivot_cols;   // increasing
  [[nodiscard]] std::size_t rank() const noexcept { return pivot_cols.size(); }
};

/// Gauss-Jordan over Q; exact.
[[nodiscard]] RrefResult rref(const RatMatrix& m);

/// rank over Q of an integer matrix, exact (linalg/exact.cpp; the evidence
/// is rank_certificate in linalg/exact.hpp).  One elimination modulo the
/// first ladder prime settles a full-rank input.  A deficient one is
/// settled by whichever the engine predicts is cheaper: cols - rank kernel
/// vectors lifted from that elimination and checked over Z (about 2 rank^2
/// operations per vector and p-adic step, up to 2 bound/61 steps), or
/// about bound/61 more primes; bound is the bit size of the Hadamard bound
/// on the rank- or (rank+1)-minors.
[[nodiscard]] std::size_t rank(const IntMatrix& m);
/// rank over Q by Gauss-Jordan (the oracle for the integer overload).
[[nodiscard]] std::size_t rank(const RatMatrix& m);

/// Basis of the right nullspace {x : m x = 0}; one column vector per basis
/// element (empty when m has full column rank).
[[nodiscard]] std::vector<std::vector<num::Rational>> nullspace(
    const RatMatrix& m);

/// Solves m x = b exactly; nullopt when inconsistent.  When the system is
/// underdetermined, returns the solution with free variables set to zero.
[[nodiscard]] std::optional<std::vector<num::Rational>> solve(
    const RatMatrix& m, const std::vector<num::Rational>& b);

/// True iff v lies in the column span of m.
[[nodiscard]] bool in_column_span(const RatMatrix& m,
                                  const std::vector<num::Rational>& v);

/// Canonical form of the column span of m: the RREF of m^T with zero rows
/// dropped.  Two matrices have equal column spans iff their canonical forms
/// are equal.
[[nodiscard]] RatMatrix column_span_canonical(const RatMatrix& m);

/// True iff the column spans coincide.
[[nodiscard]] bool same_column_span(const RatMatrix& a, const RatMatrix& b);

/// Dimension of the intersection of the column spans of a and b
/// (dim a + dim b - dim [a | b]).
[[nodiscard]] std::size_t span_intersection_dim(const RatMatrix& a,
                                                const RatMatrix& b);

}  // namespace ccmx::la
