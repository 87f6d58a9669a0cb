// ccmx_cli — a small command-line driver over the public API.
//
// Subcommands:
//   singularity <n> <k> [seed]   run both singularity protocols on a random
//                                instance and print the bit accounting
//   solvable    <n> <k> [seed]   same for linear-system solvability [A | b]
//   hard        <n> <k> [seed]   build a paper hard instance (Lemma 3.5(a)
//                                completion) and verify it end to end
//   rank        <n> <r> [seed]   rank-threshold audit via the bordering
//                                reduction across the whole spectrum
//   mesh        <n> <k>          simulate the systolic mesh and audit the
//                                VLSI bounds
//
// Every argument is a plain decimal number checked against its command's
// range (see usage()); anything else prints the usage and exits 2.
//
// Build & run:  ./build/examples/ccmx_cli singularity 8 8
//
// Observability: CCMX_TRACE=1 turns the obs counters on;
// CCMX_REPORT=<path> writes a ccmx.run_report/1 JSON summary at exit
// (see docs/OBSERVABILITY.md).
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "bigint/modular.hpp"
#include "comm/channel.hpp"
#include "core/construction.hpp"
#include "core/rank_spectrum.hpp"
#include "core/reductions.hpp"
#include "linalg/det.hpp"
#include "linalg/rref.hpp"
#include "obs/hwcounters.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "protocols/fingerprint.hpp"
#include "protocols/send_half.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "vlsi/mesh.hpp"
#include "vlsi/tradeoffs.hpp"

namespace {

using namespace ccmx;

la::IntMatrix random_entries(std::size_t n, unsigned k,
                             util::Xoshiro256& rng) {
  return la::IntMatrix::generate(n, n, [&](std::size_t, std::size_t) {
    return num::BigInt(
        static_cast<std::int64_t>(rng.below(std::uint64_t{1} << k)));
  });
}

int cmd_singularity(std::size_t n, unsigned k, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const la::IntMatrix m = random_entries(n, k, rng);
  const comm::MatrixBitLayout layout(n, n, k);
  const comm::Partition pi = comm::Partition::pi0(layout);
  const comm::BitVec input = layout.encode(m);
  const bool truth = la::is_singular(m);

  const auto det = comm::execute(proto::make_send_half_singularity(layout),
                                 input, pi);
  const unsigned pb = proto::recommend_prime_bits(n, k, 0.01);
  const proto::FingerprintProtocol fp(
      layout, proto::FingerprintTask::kSingularity, pb, 1, seed);
  const auto prob = comm::execute(fp, input, pi);

  util::TextTable table({"protocol", "answer", "bits"});
  table.row("exact (ground truth)", truth ? "singular" : "nonsingular", "-");
  table.row("send-half (deterministic)",
            det.answer ? "singular" : "nonsingular", det.bits);
  table.row("fingerprint (prime " + std::to_string(pb) + "b)",
            prob.answer ? "singular" : "nonsingular", prob.bits);
  table.print(std::cout);
  return det.answer == truth ? 0 : 1;
}

int cmd_solvable(std::size_t n, unsigned k, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const la::IntMatrix m = random_entries(n, k, rng);  // [A | b], b = last col
  const comm::MatrixBitLayout layout(n, n, k);
  const comm::Partition pi = comm::Partition::pi0(layout);
  const comm::BitVec input = layout.encode(m);

  const la::IntMatrix a = m.block(0, 0, n, n - 1);
  std::vector<num::BigInt> b;
  for (std::size_t i = 0; i < n; ++i) b.push_back(m(i, n - 1));
  const bool truth = core::solvable(a, b);

  const auto det = comm::execute(proto::make_send_half_solvability(layout),
                                 input, pi);
  const proto::FingerprintProtocol fp(
      layout, proto::FingerprintTask::kSolvability, 20, 2, seed);
  const auto prob = comm::execute(fp, input, pi);

  util::TextTable table({"protocol", "answer", "bits"});
  table.row("exact (ground truth)", truth ? "solvable" : "unsolvable", "-");
  table.row("send-half", det.answer ? "solvable" : "unsolvable", det.bits);
  table.row("fingerprint", prob.answer ? "solvable" : "unsolvable",
            prob.bits);
  table.print(std::cout);
  return det.answer == truth ? 0 : 1;
}

int cmd_hard(std::size_t n, unsigned k, std::uint64_t seed) {
  const core::ConstructionParams p(n, k);
  if (!p.valid()) {
    std::cerr << "invalid parameters: need n >= 4 + ceil(log_q n), n odd\n";
    return 2;
  }
  util::Xoshiro256 rng(seed);
  const auto free_seed = core::FreeParts::random(p, rng);
  const auto completed = core::lemma35_complete(p, free_seed.c, free_seed.e);
  if (!completed) {
    std::cerr << "completion failed (should not happen)\n";
    return 1;
  }
  const la::IntMatrix m = core::build_m(p, *completed);
  std::cout << "Built the " << 2 * n << "x" << 2 * n
            << " restricted instance (q = " << p.q() << ")\n";
  std::cout << "det(M) = " << la::det_bareiss(m) << "  (Lemma 3.5(a) says 0)\n";
  std::cout << "scalar characterization: "
            << (core::restricted_singular(p, *completed) ? "singular"
                                                         : "nonsingular")
            << "\n";
  const auto instance = core::corollary13_instance(m);
  std::cout << "Corollary 1.3 pair solvable: "
            << (core::solvable(instance.m_prime, instance.b) ? "yes" : "no")
            << "\n";
  return 0;
}

int cmd_rank(std::size_t n, std::size_t r, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const la::IntMatrix m = core::random_rank_r(n, r, 20, rng);
  std::cout << "Matrix of exact rank " << la::rank(m) << " (requested " << r
            << ")\n";
  util::TextTable table({"threshold", "rank >= t ?", "bordered det != 0"});
  for (std::size_t t = 1; t <= n; ++t) {
    const bool verdict = core::rank_at_least_via_singularity(m, t, 1000000, rng);
    table.row(t, r >= t ? "yes" : "no", verdict ? "yes" : "no");
  }
  table.print(std::cout);
  return 0;
}

int cmd_mesh(std::size_t n, unsigned k) {
  util::Xoshiro256 rng(1);
  const la::IntMatrix m = random_entries(n, k, rng);
  vlsi::MeshConfig config;
  config.input_bits = k;
  const auto seq = vlsi::simulate_mesh(m, config);
  const auto pipe = vlsi::simulate_mesh_pipelined(m, config);
  util::TextTable table({"design", "cycles", "bisection bits", "AT^2 ratio"});
  const double c = vlsi::comm_complexity(n, k);
  const double area = static_cast<double>(seq.area_units);
  const auto ratio = [&](std::size_t cycles) {
    const double t = static_cast<double>(cycles);
    return util::fmt_double(area * t * t / (c * c), 1);
  };
  table.row("sequential", seq.cycles, seq.bisection_bits, ratio(seq.cycles));
  table.row("pipelined", pipe.cycles, pipe.bisection_bits, ratio(pipe.cycles));
  table.print(std::cout);
  return 0;
}

void usage() {
  const std::string k = "k in [1, " + std::to_string(num::kZpBits) + "]\n";
  std::cerr << "usage: ccmx_cli <singularity|solvable|hard|rank|mesh> "
               "<args...>\n"
            << "  singularity n k [seed]   n in [1, 1024], " << k
            << "  solvable    n k [seed]   n in [1, 1024], " << k
            << "  hard        n k [seed]   n odd in [3, 1024], k in [2, 20]\n"
            << "  rank        n r [seed]   n in [1, 1024], r in [0, n]\n"
            << "  mesh        n k          n in [1, 1024], " << k
            << "  seed is any unsigned 64-bit decimal\n";
}

/// Largest matrix side accepted: n^2 k stays far from overflow and the
/// exact ground truths finish in minutes.
constexpr std::uint64_t kMaxSide = 1024;

/// One decimal argument, strictly: digits only (no sign, no spaces, no
/// trailing text), no overflow, and within [lo, hi].
std::optional<std::uint64_t> parse_uint(const char* text, std::uint64_t lo,
                                        std::uint64_t hi) {
  std::uint64_t value = 0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end || value < lo || value > hi) {
    return std::nullopt;
  }
  return value;
}

struct Args {
  std::string cmd;
  std::size_t n = 0;
  std::size_t arg3 = 0;  // k, or r for rank
  std::uint64_t seed = 2024;
};

/// The command line checked against the command's ranges; nullopt means
/// print the usage and exit 2.
std::optional<Args> parse_args(int argc, char** argv) {
  if (argc < 4) return std::nullopt;
  Args args;
  args.cmd = argv[1];
  std::uint64_t n_lo = 1, arg3_lo = 1, arg3_hi = num::kZpBits;
  if (args.cmd == "hard") {
    n_lo = 3;
    arg3_lo = 2;
    arg3_hi = 20;
  } else if (args.cmd != "singularity" && args.cmd != "solvable" &&
             args.cmd != "rank" && args.cmd != "mesh") {
    return std::nullopt;
  }
  if (argc > (args.cmd == "mesh" ? 4 : 5)) return std::nullopt;
  const auto n = parse_uint(argv[2], n_lo, kMaxSide);
  if (!n || (args.cmd == "hard" && *n % 2 == 0)) return std::nullopt;
  if (args.cmd == "rank") {
    arg3_lo = 0;
    arg3_hi = *n;
  }
  const auto arg3 = parse_uint(argv[3], arg3_lo, arg3_hi);
  const auto seed =
      argc > 4 ? parse_uint(argv[4], 0, ~std::uint64_t{0})
               : std::optional<std::uint64_t>(args.seed);
  if (!arg3 || !seed) return std::nullopt;
  args.n = static_cast<std::size_t>(*n);
  args.arg3 = static_cast<std::size_t>(*arg3);
  args.seed = *seed;
  return args;
}

int run_command(const std::string& cmd, std::size_t n, std::size_t arg3,
                std::uint64_t seed) {
  // Root of the run's span tree: every protocol execution (comm.execute)
  // and core-layer span nests under this in the JSONL trace.
  obs::ScopedSpan span("cli." + cmd);
  span.arg("n", static_cast<std::uint64_t>(n));
  span.arg(cmd == "rank" ? "r" : "k", static_cast<std::uint64_t>(arg3));
  if (cmd == "singularity") {
    return cmd_singularity(n, static_cast<unsigned>(arg3), seed);
  }
  if (cmd == "solvable") {
    return cmd_solvable(n, static_cast<unsigned>(arg3), seed);
  }
  if (cmd == "hard") return cmd_hard(n, static_cast<unsigned>(arg3), seed);
  if (cmd == "rank") return cmd_rank(n, arg3, seed);
  if (cmd == "mesh") return cmd_mesh(n, static_cast<unsigned>(arg3));
  usage();
  return 2;
}

/// Writes a ccmx.run_report/1 summary when CCMX_REPORT names a path.
void maybe_write_report(int argc, char** argv, const util::WallTimer& timer) {
  const char* path = std::getenv("CCMX_REPORT");
  if (path == nullptr || path[0] == '\0') return;
  obs::RunReport report;
  report.name = "ccmx_cli";
  for (int i = 0; i < argc; ++i) report.argv.emplace_back(argv[i]);
  report.wall_seconds = timer.seconds();
  report.cpu_seconds = timer.cpu_seconds();
  obs::flush_thread();
  obs::write_run_report(report, path);
  std::cerr << "run report: " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    usage();
    return 2;
  }
  const util::WallTimer timer;
  // Probe the hardware counters before any work, so the report's hw
  // block counts the whole run; the probe degrades to a no-op where the
  // counters cannot run.
  static_cast<void>(obs::hw_available());
  // Sampling CPU profiler (CCMX_PROF_HZ / CCMX_PROF_FILE); degrades to
  // a reasoned no-op when unconfigured or unavailable.
  obs::profiler_start_from_env();
  const auto& [cmd, n, arg3, seed] = *args;
  obs::set_attribute("command", cmd);
  obs::set_attribute("seed", std::to_string(seed));
  obs::set_attribute("n", std::to_string(n));
  // arg3 is k for singularity/solvable/hard/mesh and r for rank; record
  // it under both spellings so report diffs can key on either.
  obs::set_attribute(cmd == "rank" ? "r" : "k", std::to_string(arg3));
  try {
    const int rc = run_command(cmd, n, arg3, seed);
    obs::profiler_stop();
    maybe_write_report(argc, argv, timer);
    return rc;
  } catch (const std::exception& e) {
    obs::profiler_stop();
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
