// Conversions between the entry rings used by the library.
#pragma once

#include <cstdint>

#include "bigint/bigint.hpp"
#include "bigint/modular.hpp"
#include "bigint/rational.hpp"
#include "linalg/matrix.hpp"

namespace ccmx::la {

using IntMatrix = Matrix<num::BigInt>;
using RatMatrix = Matrix<num::Rational>;
using ModMatrix = Matrix<std::uint64_t>;

[[nodiscard]] inline RatMatrix to_rational(const IntMatrix& m) {
  return map_matrix<num::Rational>(
      m, [](const num::BigInt& v) { return num::Rational(v); });
}

/// Entrywise canonical residue in [0, p), for 2 <= p < 2^62 (else
/// contract_error).
[[nodiscard]] inline ModMatrix reduce_mod(const IntMatrix& m,
                                          std::uint64_t p) {
  const num::Zp field(p);
  return map_matrix<std::uint64_t>(
      m, [&field](const num::BigInt& v) { return field.reduce(v); });
}

}  // namespace ccmx::la
