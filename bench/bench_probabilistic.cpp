// E2 — Leighton's bound: probabilistic CC of singularity is
// O(n^2 max{log n, log k}), against the deterministic Theta(k n^2).
//
// The fingerprint protocol's measured bits are flat in k beyond log k while
// the deterministic protocol grows linearly in k; measured error stays
// below the analytic bound.
#include <cmath>

#include "bench_common.hpp"
#include "linalg/det.hpp"
#include "protocols/fingerprint.hpp"
#include "protocols/private_coin.hpp"
#include "protocols/send_half.hpp"

namespace {

using namespace ccmx;
using bench::random_entries;

void table_bits() {
  bench::print_header(
      "E2a — probabilistic vs deterministic bits (eps = 0.01)",
      "Measured channel bits under pi_0.  Deterministic = k n^2 / 2 + 1;\n"
      "fingerprint = (n^2/2) * prime_bits + 1 with prime_bits =\n"
      "Theta(max{log n, log k}).");
  util::TextTable table({"n", "k", "prime_bits", "det(bits)", "fp(bits)",
                         "ratio", "err-bound"});
  for (const std::size_t n : {4u, 8u, 16u}) {
    for (const unsigned k : {2u, 8u, 24u, 48u}) {
      const unsigned pb = proto::recommend_prime_bits(n, k, 0.01);
      const comm::MatrixBitLayout layout(n, n, k);
      const comm::Partition pi = comm::Partition::pi0(layout);
      util::Xoshiro256 rng(n * 101 + k);
      const comm::BitVec input = layout.encode(random_entries(n, n, k, rng));
      const auto det_protocol = proto::make_send_half_singularity(layout);
      const auto det_bits = comm::execute(det_protocol, input, pi).bits;
      const proto::FingerprintProtocol fp(
          layout, proto::FingerprintTask::kSingularity, pb, 1, n + k);
      const auto fp_bits = comm::execute(fp, input, pi).bits;
      table.row(n, k, pb, det_bits, fp_bits,
                util::fmt_double(static_cast<double>(det_bits) /
                                     static_cast<double>(fp_bits),
                                 2),
                util::fmt_double(proto::singularity_error_bound(n, k, pb), 5));
    }
  }
  bench::print_table(table);
}

void table_error() {
  bench::print_header(
      "E2b — measured one-sided error",
      "Nonsingular inputs misclassified as singular (random + adversarial\n"
      "paper-style instances with tiny determinants); singular inputs are\n"
      "never misclassified (checked).");
  util::TextTable table({"n", "k", "prime_bits", "trials", "errors",
                         "measured", "bound"});
  for (const auto& [n, k, pb] :
       std::vector<std::tuple<std::size_t, unsigned, unsigned>>{
           {4, 4, 8}, {4, 4, 12}, {6, 6, 10}, {8, 4, 12}}) {
    const comm::MatrixBitLayout layout(n, n, k);
    const comm::Partition pi = comm::Partition::pi0(layout);
    util::Xoshiro256 rng(n * 7 + k);
    const int trials = 300;
    int errors = 0;
    int singular_wrong = 0;
    for (int trial = 0; trial < trials; ++trial) {
      la::IntMatrix m = random_entries(n, n, k, rng);
      const bool singular_truth = la::is_singular(m);
      const proto::FingerprintProtocol fp(
          layout, proto::FingerprintTask::kSingularity, pb, 1,
          static_cast<std::uint64_t>(trial) * 977 + n);
      const bool answered = comm::execute(fp, layout.encode(m), pi).answer;
      if (singular_truth && !answered) ++singular_wrong;
      if (!singular_truth && answered) ++errors;
    }
    table.row(n, k, pb, trials, errors,
              util::fmt_double(static_cast<double>(errors) / trials, 4),
              util::fmt_double(proto::singularity_error_bound(n, k, pb), 4));
    if (singular_wrong != 0) {
      std::cout << "!! one-sidedness violated: " << singular_wrong << "\n";
    }
  }
  bench::print_table(table);
}

void table_repetition() {
  bench::print_header(
      "E2c — error decay under repetition",
      "t independent primes AND-combined: error ~ eps^t, bits ~ t * base.");
  util::TextTable table({"repetitions", "bits", "err-bound(analytic)"});
  const std::size_t n = 6;
  const unsigned k = 6, pb = 8;
  const comm::MatrixBitLayout layout(n, n, k);
  const comm::Partition pi = comm::Partition::pi0(layout);
  util::Xoshiro256 rng(9);
  const comm::BitVec input = layout.encode(random_entries(n, n, k, rng));
  const double eps = proto::singularity_error_bound(n, k, pb);
  for (const unsigned reps : {1u, 2u, 4u, 8u}) {
    const proto::FingerprintProtocol fp(
        layout, proto::FingerprintTask::kSingularity, pb, reps, 11);
    table.row(reps, comm::execute(fp, input, pi).bits,
              util::fmt_double(std::pow(eps, reps), 8));
  }
  bench::print_table(table);
}

void table_private_coin() {
  bench::print_header(
      "E2d — public vs private coins (Newman overhead)",
      "A fixed table of T primes is protocol description; agent 0 announces\n"
      "its privately drawn index.  Overhead = ceil(log2 T) bits, error as\n"
      "public-coin restricted to the table.");
  util::TextTable table({"n", "k", "T", "public(bits)", "private(bits)",
                         "overhead"});
  for (const auto& [n, k, t] :
       std::vector<std::tuple<std::size_t, unsigned, std::size_t>>{
           {8, 8, 64}, {8, 8, 1024}, {16, 8, 1024}}) {
    const comm::MatrixBitLayout layout(n, n, k);
    const comm::Partition pi = comm::Partition::pi0(layout);
    util::Xoshiro256 rng(n + t);
    const comm::BitVec input = layout.encode(random_entries(n, n, k, rng));
    const proto::FingerprintProtocol pub(
        layout, proto::FingerprintTask::kSingularity, 14, 1, 3);
    const proto::PrivateCoinSingularity priv(layout, 14, t, 7, 3);
    const auto pub_bits = comm::execute(pub, input, pi).bits;
    const auto priv_bits = comm::execute(priv, input, pi).bits;
    table.row(n, k, t, pub_bits, priv_bits, priv_bits - pub_bits);
  }
  bench::print_table(table);
}

void print_tables() {
  table_bits();
  table_error();
  table_repetition();
  table_private_coin();
}

void BM_FingerprintProtocol(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const unsigned k = 8;
  const comm::MatrixBitLayout layout(n, n, k);
  const comm::Partition pi = comm::Partition::pi0(layout);
  util::Xoshiro256 rng(n);
  const comm::BitVec input = layout.encode(random_entries(n, n, k, rng));
  const proto::FingerprintProtocol fp(
      layout, proto::FingerprintTask::kSingularity, 16, 1, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(comm::execute(fp, input, pi).answer);
  }
}
BENCHMARK(BM_FingerprintProtocol)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_ExactSingularityLocal(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(n);
  const la::IntMatrix m = random_entries(n, n, 8, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::is_singular(m));
  }
}
BENCHMARK(BM_ExactSingularityLocal)->Arg(4)->Arg(8)->Arg(16)->Arg(64);

}  // namespace

CCMX_BENCH_MAIN(print_tables)
