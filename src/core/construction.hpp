// The paper's hard-instance family (Section 3, Figures 1 and 3).
//
// The input is a 2n x 2n matrix M of k-bit entries, n odd, q = 2^k - 1:
//
//        col:   1    2 .. n    n+1   n+2 .......... 2n
//   row 1..n  [ e_1 |  0     |  e_n | antidiagonal 1s,  ]   (top half)
//             [     |        |      | q's one above     ]
//   row n+1..2n [ 0 |   A    |  0   |        B          ]   (bottom half)
//
// Top-right block (cols n+2..2n, rows 1..n): M[i][j] = 1 if i + j = 2n + 1,
// q if i + j = 2n + 2, else 0.  This forces the coefficient of column
// 2n - i in any dependency to be (-q)^i, i.e. the bottom half reads
// A x + B u = 0 with u = [(-q)^{n-2}, .., (-q)^0]^T (Lemma 3.2).
//
// A (n x (n-1), Fig. 3):  unit diagonal; q on the superdiagonal within the
// first (n-1)/2 columns; the free block C ((n-1)/2 x (n-1)/2) in rows
// 1..(n-1)/2, columns (n+1)/2..n-1; rows (n+1)/2..n-1 are unit vectors;
// row n is e_1^T.
//
// B (n x (n-1), Fig. 3):  rows 1..(n-1)/2 carry the free block D in the
// first G = ceil(log_q n) + 2 columns (the u-powers that are multiples of
// m = q^L); rows (n+1)/2..n-1 carry the free block E in the last
// L = n - 3 - ceil(log_q n) columns; row n is the free vector y.  G + L =
// n - 1, so D and E tile the column range.  All free entries lie in
// [0, q-1].
//
// Because a row of free digits dotted with consecutive powers of (-q) is a
// base-(-q) numeral (see bigint/negabase.hpp), singularity of M reduces to
// an O(n^2) digit computation — restricted_singular() — which is what makes
// the exact lemma censuses tractable.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bigint/bigint.hpp"
#include "linalg/convert.hpp"
#include "linalg/span_form.hpp"
#include "util/rng.hpp"

namespace ccmx::core {

/// Geometry of the restricted family for a given (n, k).
class ConstructionParams {
 public:
  /// n odd; k >= 1.  Validity additionally needs L >= 1 (see valid()).
  ConstructionParams(std::size_t n, unsigned k);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] unsigned k() const noexcept { return k_; }
  /// q = 2^k - 1 (the largest k-bit value).
  [[nodiscard]] std::uint64_t q() const noexcept { return q_; }
  /// (n - 1) / 2 — the side of C and the number of D/E rows.
  [[nodiscard]] std::size_t half() const noexcept { return (n_ - 1) / 2; }
  /// ceil(log_q n).
  [[nodiscard]] std::size_t log_q_n() const noexcept { return log_q_n_; }
  /// G = ceil(log_q n) + 2 — the width of D.
  [[nodiscard]] std::size_t g() const noexcept { return log_q_n_ + 2; }
  /// L = n - 3 - ceil(log_q n) — the width of E.
  [[nodiscard]] std::size_t l() const noexcept { return n_ - 3 - log_q_n_; }
  /// m = q^L — the modulus of the Lemma 3.5 completion.
  [[nodiscard]] const num::BigInt& m() const noexcept { return m_; }

  /// The geometry is usable iff L >= 1 (smallest instance: n = 7, k = 1).
  [[nodiscard]] bool valid() const noexcept;

  /// u = [(-q)^{n-2}, .., (-q)^1, (-q)^0]^T, length n - 1 (Definition 3.1).
  [[nodiscard]] std::vector<num::BigInt> u_vector() const;
  /// w = [(-q)^{L-1}, .., 1]^T, length L (proof of Lemma 3.7).
  [[nodiscard]] std::vector<num::BigInt> w_vector() const;

  /// Counts of free entries (they define the restricted truth matrix shape):
  /// rows are C instances, columns are (D, E, y) instances.
  [[nodiscard]] std::size_t free_entries_c() const noexcept {
    return half() * half();
  }
  [[nodiscard]] std::size_t free_entries_dey() const noexcept {
    return half() * g() + half() * l() + (n_ - 1);
  }

 private:
  std::size_t n_;
  unsigned k_;
  std::uint64_t q_;
  std::size_t log_q_n_;
  num::BigInt m_;
};

/// The free parts of one instance: entries in [0, q-1].
struct FreeParts {
  la::IntMatrix c;  // half x half
  la::IntMatrix d;  // half x G
  la::IntMatrix e;  // half x L
  std::vector<num::BigInt> y;  // n - 1

  [[nodiscard]] static FreeParts random(const ConstructionParams& p,
                                        util::Xoshiro256& rng);
};

/// A per Fig. 3 (n x (n-1)).
[[nodiscard]] la::IntMatrix build_a(const ConstructionParams& p,
                                    const la::IntMatrix& c);

/// B per Fig. 3 (n x (n-1)).
[[nodiscard]] la::IntMatrix build_b(const ConstructionParams& p,
                                    const la::IntMatrix& d,
                                    const la::IntMatrix& e,
                                    const std::vector<num::BigInt>& y);

/// The full 2n x 2n matrix M per Fig. 1.
[[nodiscard]] la::IntMatrix build_m(const ConstructionParams& p,
                                    const la::IntMatrix& a,
                                    const la::IntMatrix& b);

/// Convenience: M from free parts.
[[nodiscard]] la::IntMatrix build_m(const ConstructionParams& p,
                                    const FreeParts& parts);

/// Lemma 3.2 predicate: with dim Span(A) = n - 1, M is singular iff
/// B u \in Span(A).  Computed by exact rational solve.
[[nodiscard]] bool lemma32_singular(const ConstructionParams& p,
                                    const la::IntMatrix& a,
                                    const la::IntMatrix& b);

/// O(n^2) singularity decision using the triangular structure of A: the
/// E-rows force the tail of x, the D-rows force the head, and singularity
/// is the single scalar test x_1 == y . u.  Agrees with det(M) == 0 (tested).
[[nodiscard]] bool restricted_singular(const ConstructionParams& p,
                                       const FreeParts& parts);

/// The forced x_1 of the dependency A x = B u for given (C, D, E) — the
/// quantity the y row must hit.  Exposed for the census engines.  Like
/// restricted_singular and lemma35_complete, it takes FreeParts' digits:
/// each entry must fit int64.
[[nodiscard]] num::BigInt forced_x1(const ConstructionParams& p,
                                    const la::IntMatrix& c,
                                    const la::IntMatrix& d,
                                    const la::IntMatrix& e);

/// Lemma 3.5(a): given C and E, construct D and y such that M is singular.
/// Returns nullopt only if a digit budget overflows (the paper's counting
/// shows it never does for valid parameters; tests sweep this).
[[nodiscard]] std::optional<FreeParts> lemma35_complete(
    const ConstructionParams& p, const la::IntMatrix& c,
    const la::IntMatrix& e);

/// A(C)^T as int64 words, row-major: n - 1 rows of n, written into `out`
/// straight from C's digits (row-major, half x half), with no BigInt.
/// These are the rows la::column_span_form's word entry eliminates.
void a_transpose_words(const ConstructionParams& p,
                       const std::vector<std::int64_t>& c,
                       std::vector<std::int64_t>& out);

/// Canonical integer form of Span(A(C)) (linalg/span_form.hpp) — equal
/// forms iff equal spans (Lemma 3.4), from a_transpose_words.  A's top
/// (n-1) x (n-1) block is unit upper triangular, so every pivot of the
/// elimination is 1 and the form is the RREF of A^T itself, integral.
[[nodiscard]] la::SpanForm span_canonical(const ConstructionParams& p,
                                          const la::IntMatrix& c);

/// Enumeration helpers: the i-th C (resp. (D,E,y)) instance in
/// lexicographic digit order, i < q^{free_entries}.
[[nodiscard]] la::IntMatrix c_instance(const ConstructionParams& p,
                                       std::uint64_t index);
/// c_instance's digits, row-major, written into `out`.
void c_instance_digits(const ConstructionParams& p, std::uint64_t index,
                       std::vector<std::int64_t>& out);
[[nodiscard]] FreeParts dey_instance(const ConstructionParams& p,
                                     const la::IntMatrix& c,
                                     std::uint64_t index);

}  // namespace ccmx::core
