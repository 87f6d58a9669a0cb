// Exact determinants of integer matrices, and the singularity decision.
//
// Determinant values come from Bareiss fraction-free elimination: all
// intermediate quantities stay integral and bounded by Hadamard's
// inequality, so the cost is O(n^3) BigInt operations on n(k + log n)-bit
// numbers — exactly the quantity the paper's communication argument is
// about.  Bareiss serves callers that need the value (the Corollary 1.2
// determinant reduction) and is the oracle the tests check the modular
// engine against; a cofactor expansion is an independent reference for
// Bareiss itself.  Deciding singularity needs no value: is_singular runs
// on the modular engine (linalg/exact.cpp), which proves a nonsingular
// matrix nonsingular by a nonzero determinant residue, and a singular one
// singular by one kernel vector checked over Z or by the prime ladder's
// Hadamard stop rule.
#pragma once

#include "bigint/bigint.hpp"
#include "linalg/convert.hpp"

namespace ccmx::la {

/// det(m) by Bareiss fraction-free Gaussian elimination.  Requires square.
[[nodiscard]] num::BigInt det_bareiss(const IntMatrix& m);

/// det(m) by cofactor expansion — O(n!) reference oracle for small n.
[[nodiscard]] num::BigInt det_cofactor(const IntMatrix& m);

/// True iff det(m) == 0, decided exactly by the modular engine
/// (singularity_certificate in linalg/exact.hpp).  Requires square.
[[nodiscard]] bool is_singular(const IntMatrix& m);

/// Hadamard upper bound on |det| for an n x n matrix whose entries have
/// absolute value < 2^k: (2^k * sqrt(n))^n, returned as a bit-length bound.
/// This drives the fingerprint protocols' prime-pool sizing.
[[nodiscard]] std::size_t hadamard_det_bits(std::size_t n, unsigned k);

}  // namespace ccmx::la
