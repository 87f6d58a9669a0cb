// Canonical integer form of a column span, by fraction-free Gauss-Jordan.
//
// The RREF of m^T with its zero rows dropped (rref.hpp's
// column_span_canonical) names the column span of m uniquely, but over Q:
// every entry is a reduced fraction.  Its least integer multiple is just
// as canonical and needs no rational at all.  Fraction-free Gauss-Jordan
// (Bareiss, "Sylvester's identity and multistep integer-preserving
// Gaussian elimination", Math. Comp. 22, 1968; Nakos, Turner and Williams,
// "Fraction-free algorithms for linear and polynomial equations", SIGSAM
// Bull. 31(3), 1997) computes d * RREF(m^T), d the determinant of the
// pivot minor, with one exact division by the previous pivot per update;
// dividing by the content and fixing the sign leaves the least multiple.
//
// The elimination runs on int64 with every product and difference
// overflow-checked and, on the first overflow, reruns on BigInt.  The
// Lemma 3.4 census keys its spans by this form's int64 words.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "linalg/convert.hpp"

namespace ccmx::la {

/// The canonical integer form F of the column span of an r x c matrix m:
/// F = lambda * RREF(m^T) with zero rows dropped, lambda the least
/// positive integer that clears the RREF's denominators.  So F has
/// rank(m) rows and r columns, content 1 and positive pivots (each equal
/// to lambda), and two matrices with r rows have equal column spans iff
/// their forms are equal.  The entries are int64 words exactly when each
/// one fits, whichever arithmetic computed them, so words and wide never
/// hold the same form.
struct SpanForm {
  std::size_t rank = 0;  // rows of F: the dimension of the span
  std::size_t dim = 0;   // columns of F: the ambient dimension (m's rows)
  /// F row-major, when every entry fits an int64 (empty otherwise).
  std::vector<std::int64_t> words;
  /// F when some entry does not fit an int64.
  std::optional<IntMatrix> wide;
  /// The int64 elimination overflowed (or m had an entry past int64), so
  /// BigInt computed F.
  bool fallback = false;

  /// F with BigInt entries, from either representation.
  [[nodiscard]] IntMatrix matrix() const;
};

/// The canonical integer form of m's column span (see SpanForm).
[[nodiscard]] SpanForm column_span_form(const IntMatrix& m);

}  // namespace ccmx::la
