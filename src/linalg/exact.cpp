// The exact decision engine behind la::rank(IntMatrix) and la::is_singular
// (and through them core::solvable): the rank over Q of an integer matrix,
// from one elimination modulo the first ladder prime of linalg/crt.hpp,
// then either verified kernel vectors or more ladder primes.
//
// The first prime gives r, a lower bound: rank mod p never exceeds the
// rank over Q.  At r = min(rows, cols) that settles it.  Otherwise one of
// two upper bounds settles it, whichever the engine predicts is cheaper:
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
// wider inputs stay on the ladder.  No randomness is involved: answers,
// paths and costs repeat run to run.
#include "linalg/exact.hpp"

#include <algorithm>
#include <optional>

#include "linalg/crt.hpp"
#include "linalg/det.hpp"
#include "linalg/fp.hpp"
#include "linalg/lift.hpp"
#include "linalg/rref.hpp"
#include "obs/obs.hpp"
#include "util/require.hpp"

namespace ccmx::la {

namespace {

// Decision-path meters (docs/OBSERVABILITY.md).  Like bigint.small_ops they
// gate on obs::enabled(), so CCMX_OBS=OFF compiles them out.
const obs::Counter g_calls("linalg.exact.calls");
const obs::Counter g_primes("linalg.exact.primes");
const obs::Counter g_bounded("linalg.exact.bounded");
const obs::Counter g_lifted("linalg.exact.lifted");
const obs::Counter g_lift_steps("linalg.exact.lift_steps");

/// Whether lifting the kernel is predicted to cost less than the primes
/// the ladder still needs after the first.
bool lifting_is_cheaper(const IntMatrix& m, const Echelon& e,
                        const MinorBound& bound) {
  const std::uint64_t more_primes =
      bound.bits(e.rank + 1) / kLadderPrimeBits;
  // A ladder prime's element update costs about two lifting operations,
  // and reducing an entry about four.
  const std::uint64_t per_prime = 2 * e.updates + 4 * m.rows() * m.cols();
  return predicted_lift_work(m.rows(), m.cols(), e.rank,
                             bound.bits(e.rank)) < more_primes * per_prime;
}

}  // namespace

RankCertificate rank_certificate(const IntMatrix& m) {
  RankCertificate cert;
  const std::size_t full = std::min(m.rows(), m.cols());
  bool bounded = false;
  std::size_t lift_steps = 0;
  if (full > 0) {
    std::uint64_t p = next_ladder_prime(0);
    cert.primes.push_back(p);
    const num::Zp field(p);
    ModMatrix residues = reduce_mod(m, p);
    const Echelon e = echelon(residues, field);
    std::size_t r = e.rank;
    if (r < full) {
      // Deficient: read the entries as words once, for the bound, the
      // lifting and every later prime.
      const std::optional<Words> words = to_words(m);
      const MinorBound bound = words ? MinorBound(words->m) : MinorBound(m);
      const auto stop_rule = [&] {
        return kLadderPrimeBits * cert.primes.size() > bound.bits(r + 1);
      };
      if (words && lifting_fits(words->entry_bits, r) && !stop_rule() &&
          lifting_is_cheaper(m, e, bound)) {
        KernelLift lift =
            lift_kernel(*words, residues, e, field, bound.bits(r));
        lift_steps = lift.steps;
        // At the step cap the true kernel vectors reconstruct, so lifting
        // ends verified or with a false drop.
        CCMX_ASSERT(lift.outcome != KernelLift::Outcome::kFailed);
        if (lift.outcome == KernelLift::Outcome::kVerified) {
          cert.path = RankPath::kKernel;
          cert.kernel = std::move(lift.vectors);
          cert.free_cols = std::move(lift.free_cols);
        }
      }
      if (cert.path != RankPath::kKernel) {
        cert.path = RankPath::kLadder;
        while (r < full && !(bounded = stop_rule())) {
          p = next_ladder_prime(p);
          cert.primes.push_back(p);
          const num::Zp next(p);
          residues = words ? reduce_words(words->m, next) : reduce_mod(m, p);
          r = std::max(r, echelon(residues, next).rank);
        }
      }
    }
    cert.rank = r;
  }
  if (obs::enabled()) {
    g_calls.add();
    g_primes.add(cert.primes.size());
    if (bounded) g_bounded.add();
    if (cert.path == RankPath::kKernel) g_lifted.add();
    g_lift_steps.add(lift_steps);
  }
  return cert;
}

std::size_t rank(const IntMatrix& m) { return rank_certificate(m).rank; }

bool is_singular(const IntMatrix& m) {
  CCMX_REQUIRE(m.is_square(), "singularity of a non-square matrix");
  return rank(m) < m.rows();
}

}  // namespace ccmx::la
