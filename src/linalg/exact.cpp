// The exact decision engine behind la::rank(IntMatrix), la::is_singular and
// la::solvable (and through it core::solvable).  Every question starts
// from one elimination modulo the first ladder prime of linalg/ladder.hpp,
// which gives r, a lower bound: rank mod p never exceeds the rank over Q.
//
// The rank.  At r = min(rows, cols) that settles it.  Otherwise one of two
// upper bounds settles it, whichever the engine predicts is cheaper:
//
// - Kernel witnesses (linalg/lift.hpp).  For each of the w = cols - r
//   non-pivot columns, Dixon lifting modulo the same prime solves for a
//   kernel vector, which is checked exactly over Z.  w independent
//   kernel vectors prove rank <= r.  If a vector solves the pivot rows but
//   not the matrix, the first prime saw a false drop and the ladder
//   takes over.
// - The ladder.  Each further prime p gives rank_mod_p, and r is the
//   largest seen.  It stops at full rank, or once 61 x (primes used)
//   exceeds H(r+1), a Hadamard bound, in bits, on every (r+1) x (r+1)
//   minor: every prime used saw rank <= r, so each divides every
//   (r+1)-minor, and so does their product, which exceeds 2^{61 x primes}.
//   Then every (r+1)-minor is 0 and the rank is r.
//
// The choice counts work.  The ladder costs the first elimination's element
// updates and entry reductions for each of the floor(H(r+1)/61) primes it
// still needs.  Lifting costs about 2 r^2 per kernel vector and step, up to
// its step cap, plus building and checking the vectors
// (predicted_lift_work).  Lifting needs the entries as words with
// bits + ceil(log2 r) + 62 < 127, so that its residuals fit __int128;
// wider inputs stay on the ladder.
//
// The decisions prove only the answer they return.  Singularity: r = n
// gives a nonzero determinant residue; below it, the one-prime stop rule,
// or one kernel vector lifted at the first free column and checked over Z,
// proves the matrix singular.  Solvability eliminates [A | b] once.  If b's
// column gets no pivot, the kernel vector lifted at b's column is a
// solution; if it gets one, that pivot's minor proves rank([A | b]) > r_A,
// and A's rank, a prefix of the same elimination, is settled like any rank.
// One vector is always lifted, with no cost model: on the paper's hard
// instances one lift is cheaper than the ladder's primes.  A false drop,
// or entries too wide to lift, continue on the ladder (singularity) or
// certify both ranks (solvability).  No randomness is involved: answers,
// paths and costs repeat run to run.
#include "linalg/exact.hpp"

#include <algorithm>
#include <optional>

#include "linalg/det.hpp"
#include "linalg/fp.hpp"
#include "linalg/ladder.hpp"
#include "linalg/lift.hpp"
#include "linalg/rref.hpp"
#include "obs/obs.hpp"
#include "util/require.hpp"

namespace ccmx::la {

using num::BigInt;

namespace {

// Decision-path meters (docs/OBSERVABILITY.md).  Like bigint.small_ops they
// gate on obs::enabled(), so CCMX_OBS=OFF compiles them out.
const obs::Counter g_calls("linalg.exact.calls");
const obs::Counter g_primes("linalg.exact.primes");
const obs::Counter g_bounded("linalg.exact.bounded");
const obs::Counter g_lifted("linalg.exact.lifted");
const obs::Counter g_lift_steps("linalg.exact.lift_steps");
// One per decision certificate; SingularPath::kBounded counts as bounded.
const obs::Counter g_residue("linalg.exact.cert.residue");
const obs::Counter g_kernel_vector("linalg.exact.cert.kernel_vector");
const obs::Counter g_solution("linalg.exact.cert.solution");
const obs::Counter g_b_pivot("linalg.exact.cert.b_pivot");
const obs::Counter g_two_ranks("linalg.exact.cert.two_ranks");

/// The matrix as the engine reads it past the first prime: int64 words
/// when every entry fits, else the BigInt entries.
class Entries {
 public:
  Entries(const IntMatrix* big, std::optional<Words> words)
      : big_(big), words_(std::move(words)) {}

  [[nodiscard]] std::size_t rows() const {
    return words_ ? words_->m.rows() : big_->rows();
  }
  [[nodiscard]] const std::optional<Words>& words() const { return words_; }
  [[nodiscard]] bool can_lift(std::size_t r) const {
    return words_ && lifting_fits(words_->entry_bits, r);
  }
  [[nodiscard]] ModMatrix reduce(const num::Zp& field) const {
    return words_ ? reduce_words(words_->m, field)
                  : reduce_mod(*big_, field.p());
  }
  /// Bounds on the minors of the first cols columns.
  [[nodiscard]] MinorBound bound(std::size_t cols) const {
    return words_ ? MinorBound(words_->m, cols) : MinorBound(*big_, cols);
  }

 private:
  const IntMatrix* big_;
  std::optional<Words> words_;
};

/// Whether `primes` primes that each saw rank <= r settle it: their product
/// exceeds 2^bits(r + 1), so every (r+1)-minor is 0.
bool stops(const MinorBound& bound, std::size_t r, std::size_t primes) {
  return kLadderPrimeBits * primes > bound.bits(r + 1);
}

/// Pivots of e among columns [0, cols): that prefix's rank mod p.
std::size_t prefix_rank(const Echelon& e, std::size_t cols) {
  return static_cast<std::size_t>(
      std::lower_bound(e.pivot_cols.begin(), e.pivot_cols.end(), cols) -
      e.pivot_cols.begin());
}

/// e as the elimination of columns [0, cols) alone: the same pivots there,
/// the same factors, and the same row order.
Echelon prefix(Echelon e, std::size_t cols) {
  e.rank = prefix_rank(e, cols);
  e.pivot_cols.resize(e.rank);
  return e;
}

/// The non-pivot columns of e among [0, cols).
std::vector<std::size_t> free_columns(const Echelon& e, std::size_t cols) {
  std::vector<std::size_t> out;
  for (std::size_t j = 0, k = 0; j < cols; ++j) {
    if (k < e.rank && e.pivot_cols[k] == j) {
      ++k;
    } else {
      out.push_back(j);
    }
  }
  return out;
}

/// Whether lifting the kernel of a rows x cols matrix is predicted to cost
/// less than the primes the ladder still needs after the first.
bool lifting_is_cheaper(std::size_t rows, std::size_t cols, const Echelon& e,
                        const MinorBound& bound) {
  const std::uint64_t more_primes =
      bound.bits(e.rank + 1) / kLadderPrimeBits;
  // A ladder prime's element update costs about two lifting operations,
  // and reducing an entry about four.
  const std::uint64_t per_prime = 2 * e.updates + 4 * rows * cols;
  return predicted_lift_work(rows, cols, e.rank, bound.bits(e.rank)) <
         more_primes * per_prime;
}

/// Walks the ladder past primes.back() until the first `cols` columns of m
/// reach rank min(rows, cols) modulo a prime, or the stop rule (counted as
/// bounded) settles r, the largest rank they showed.
void climb(const Entries& m, std::size_t cols, const MinorBound& bound,
           std::vector<std::uint64_t>& primes, std::size_t& r) {
  const std::size_t full = std::min(m.rows(), cols);
  while (r < full) {
    if (stops(bound, r, primes.size())) {
      g_bounded.add();
      return;
    }
    primes.push_back(next_ladder_prime(primes.back()));
    const num::Zp field(primes.back());
    ModMatrix residues = m.reduce(field);
    r = std::max(r, prefix_rank(echelon(residues, field), cols));
  }
}

/// Settles the rank of the first `cols` columns of m, whose elimination
/// modulo cert.primes[0] (factors lu; e, over those columns) saw
/// r < min(rows, cols): by kernel witnesses when they are predicted to cost
/// less than the ladder, else, or after a false drop, by the ladder.
void settle_deficient(const Entries& m, std::size_t cols, const ModMatrix& lu,
                      const Echelon& e, const num::Zp& field,
                      RankCertificate& cert) {
  const MinorBound bound = m.bound(cols);
  std::size_t r = e.rank;
  if (m.can_lift(r) && !stops(bound, r, 1) &&
      lifting_is_cheaper(m.rows(), cols, e, bound)) {
    KernelLift lift = lift_kernel(*m.words(), lu, e, field, bound.bits(r),
                                  free_columns(e, cols));
    g_lift_steps.add(lift.steps);
    // At the step cap the true kernel vectors reconstruct, so lifting
    // ends verified or with a false drop.
    CCMX_ASSERT(lift.outcome != KernelLift::Outcome::kFailed);
    if (lift.outcome == KernelLift::Outcome::kVerified) {
      g_lifted.add();
      cert.rank = r;
      cert.path = RankPath::kKernel;
      cert.kernel = std::move(lift.vectors);
      // Past the prefix every entry is 0: no pivot and no free column.
      for (std::vector<BigInt>& x : cert.kernel) x.resize(cols);
      cert.free_cols = std::move(lift.free_cols);
      return;
    }
  }
  cert.path = RankPath::kLadder;
  climb(m, cols, bound, cert.primes, r);
  cert.rank = r;
}

/// [a | b] as a BigInt matrix, for the paths that read no words.
IntMatrix augmented(const IntMatrix& a, const std::vector<BigInt>& b) {
  return IntMatrix::generate(a.rows(), a.cols() + 1,
                             [&](std::size_t i, std::size_t j) {
                               return j < a.cols() ? a(i, j) : b[i];
                             });
}

}  // namespace

RankCertificate rank_certificate(const IntMatrix& m) {
  RankCertificate cert;
  const std::size_t full = std::min(m.rows(), m.cols());
  if (full > 0) {
    cert.primes.push_back(next_ladder_prime(0));
    const num::Zp field(cert.primes.front());
    ModMatrix residues = reduce_mod(m, field.p());
    const Echelon e = echelon(residues, field);
    cert.rank = e.rank;
    if (e.rank < full) {
      // Deficient: read the entries as words once, for the bound, the
      // lifting and every later prime.
      settle_deficient(Entries(&m, to_words(m)), m.cols(), residues, e, field,
                       cert);
    }
  }
  g_calls.add();
  g_primes.add(cert.primes.size());
  return cert;
}

std::size_t rank(const IntMatrix& m) { return rank_certificate(m).rank; }

SingularityCertificate singularity_certificate(const IntMatrix& m) {
  CCMX_REQUIRE(m.is_square(), "singularity of a non-square matrix");
  SingularityCertificate cert;
  const std::size_t n = m.rows();
  if (n > 0) {
    cert.primes.push_back(next_ladder_prime(0));
    const num::Zp field(cert.primes.front());
    ModMatrix residues = reduce_mod(m, field.p());
    const Echelon e = echelon(residues, field);
    std::size_t r = e.rank;
    if (r < n) {
      // Like rank_certificate, the words are read only past a deficient
      // first prime, so a nonsingular call allocates no second buffer.
      const Entries entries(&m, to_words(m));
      const MinorBound bound = entries.bound(n);
      if (!stops(bound, r, 1) && entries.can_lift(r)) {
        KernelLift lift = lift_kernel(*entries.words(), residues, e, field,
                                      bound.bits(r),
                                      {free_columns(e, n).front()});
        g_lift_steps.add(lift.steps);
        CCMX_ASSERT(lift.outcome != KernelLift::Outcome::kFailed);
        if (lift.outcome == KernelLift::Outcome::kVerified) {
          cert.singular = true;
          cert.path = SingularPath::kKernel;
          cert.kernel = std::move(lift.vectors.front());
        }
      }
      if (!cert.singular) {
        climb(entries, n, bound, cert.primes, r);
        cert.singular = r < n;
        cert.path = cert.singular ? SingularPath::kBounded
                                  : SingularPath::kResidue;
        cert.rank = r;
      }
    }
  }
  g_calls.add();
  g_primes.add(cert.primes.size());
  if (cert.path == SingularPath::kResidue) g_residue.add();
  if (cert.path == SingularPath::kKernel) g_kernel_vector.add();
  return cert;
}

bool is_singular(const IntMatrix& m) {
  return singularity_certificate(m).singular;
}

SolvabilityCertificate solvability_certificate(const IntMatrix& a,
                                               const std::vector<BigInt>& b) {
  CCMX_REQUIRE(b.size() == a.rows(), "solvable shape mismatch");
  SolvabilityCertificate cert;
  const std::size_t c = a.cols();  // b's column in [A | b]
  std::size_t eliminations = 0;
  bool settled = a.rows() == 0;  // then x = 0 solves it
  if (settled) {
    cert.solvable = true;
    cert.x.assign(c, BigInt(0));
  } else {
    std::optional<Words> words = to_words(a, b);
    const IntMatrix wide = words ? IntMatrix() : augmented(a, b);
    const Entries ab(&wide, std::move(words));
    const std::uint64_t p = next_ladder_prime(0);
    const num::Zp field(p);
    ModMatrix lu = ab.reduce(field);
    const Echelon e = echelon(lu, field);
    ++eliminations;
    const std::size_t r_a = prefix_rank(e, c);
    if (e.rank == r_a) {
      // b's column is free: a kernel vector of [A | b] with x_b = d > 0
      // gives the solution -x_A / d.
      if (ab.can_lift(r_a)) {
        KernelLift lift = lift_kernel(*ab.words(), lu, e, field,
                                      ab.bound(c + 1).bits(r_a), {c});
        g_lift_steps.add(lift.steps);
        CCMX_ASSERT(lift.outcome != KernelLift::Outcome::kFailed);
        if (lift.outcome == KernelLift::Outcome::kVerified) {
          std::vector<BigInt>& v = lift.vectors.front();
          cert.d = std::move(v[c]);
          v.pop_back();
          for (BigInt& x : v) x = -x;
          cert.x = std::move(v);
          cert.solvable = settled = true;
        }
      }
    } else {
      // b's column took pivot r_a, so the minor on the first r_a + 1 pivot
      // rows and columns is nonzero mod p: rank([A | b]) >= r_a + 1.  Then
      // rank(A) <= r_a answers "unsolvable".
      cert.prime = p;
      cert.minor_rows.assign(
          e.row_order.begin(),
          e.row_order.begin() + static_cast<std::ptrdiff_t>(r_a + 1));
      cert.minor_cols = e.pivot_cols;
      RankCertificate& a_rank = cert.a_rank;
      a_rank.primes.push_back(p);
      a_rank.rank = r_a;
      if (r_a < std::min(a.rows(), c)) {
        settle_deficient(ab, c, lu, prefix(e, c), field, a_rank);
      }
      eliminations += a_rank.primes.size() - 1;
      settled = a_rank.rank == r_a;
      if (settled) cert.path = SolvablePath::kPivot;
    }
  }
  g_calls.add();
  g_primes.add(eliminations);
  if (!settled) {
    // A false drop, or entries too wide to lift: certify both ranks.
    cert = SolvabilityCertificate{};
    cert.path = SolvablePath::kRanks;
    cert.a_rank = rank_certificate(a);
    cert.ab_rank = rank_certificate(augmented(a, b));
    cert.solvable = cert.a_rank.rank == cert.ab_rank.rank;
  }
  (cert.path == SolvablePath::kSolution ? g_solution
   : cert.path == SolvablePath::kPivot  ? g_b_pivot
                                        : g_two_ranks)
      .add();
  return cert;
}

bool solvable(const IntMatrix& a, const std::vector<BigInt>& b) {
  return solvability_certificate(a, b).solvable;
}

}  // namespace ccmx::la
