// Argument fuzz for the two command-line programs, ccmx_cli and
// ccmx_insight.  The seeds are the command lines of their rejects ctests
// plus one small valid command per subcommand.  Each run changes one
// token of a seed: a non-digit suffix or prefix, a sign, 2^64 or the empty
// string; or it drops, duplicates or swaps a token.  Every run must exit
// by itself with 0, 1 or 2, never by a signal, and a run in which a
// decimal token stopped being decimal must exit 2, the usage error.
//
// Runs go one at a time, in a scratch directory that is also their
// TMPDIR, with every CCMX_* variable cleared and a sanitizer finding
// exiting 23, so that it fails the status check.  The files the seeds read
// are copied in afresh before each run, so a failing command line
// reproduces on its own.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

extern char** environ;

namespace {

namespace fs = std::filesystem;
using ccmx::util::Xoshiro256;
using Command = std::vector<std::string>;  // the arguments after argv[0]

constexpr int kRuns = 600;  // per program

/// Digits, optionally followed by one '.' and more digits.
bool is_decimal(const std::string& text) {
  const auto digits = [](const std::string& part) {
    return !part.empty() &&
           part.find_first_not_of("0123456789") == std::string::npos;
  };
  const std::size_t dot = text.find('.');
  return dot == std::string::npos
             ? digits(text)
             : digits(text.substr(0, dot)) && digits(text.substr(dot + 1));
}

/// Changes one token of cmd, which must not be empty.  Returns whether
/// the change turned a decimal token into a non-decimal one.
bool mutate(Command& cmd, Xoshiro256& rng) {
  // No '/': a prefixed output path must stay in the scratch directory.
  static const char* const kJunk[] = {"x", "ms", " ", "#", "abc", "_", "%"};
  const auto junk = [&rng] { return kJunk[rng.below(std::size(kJunk))]; };
  // Half the picks go to a decimal token where there is one: those are
  // what the parsers check.
  std::vector<std::size_t> decimals;
  for (std::size_t i = 0; i < cmd.size(); ++i) {
    if (is_decimal(cmd[i])) decimals.push_back(i);
  }
  const std::size_t at = !decimals.empty() && rng.coin()
                             ? decimals[rng.below(decimals.size())]
                             : rng.below(cmd.size());
  const bool decimal = is_decimal(cmd[at]);
  switch (rng.below(8)) {
    case 0:
      cmd[at] += junk();
      return decimal;
    case 1:
      cmd[at].insert(0, junk());
      return decimal;
    case 2:
      cmd[at].insert(0, rng.coin() ? "-" : "+");
      return decimal;
    case 3:
      cmd[at] = "18446744073709551616";  // 2^64
      return false;
    case 4:
      cmd[at].clear();
      return decimal;
    case 5:
      cmd.erase(cmd.begin() + static_cast<std::ptrdiff_t>(at));
      return false;
    case 6: {
      const std::string copy = cmd[at];
      cmd.insert(cmd.begin() +
                     static_cast<std::ptrdiff_t>(rng.below(cmd.size() + 1)),
                 copy);
      return false;
    }
    default:
      std::swap(cmd[at], cmd[rng.below(cmd.size())]);
      return false;
  }
}

std::string quoted(const std::string& program, const Command& cmd) {
  std::ostringstream out;
  out << fs::path(program).filename().string();
  for (const std::string& arg : cmd) out << " '" << arg << "'";
  return out.str();
}

/// The caller's environment without CCMX_* and TMPDIR, plus TMPDIR=dir,
/// exitcode=23 for the sanitizers and `extra`.
std::vector<std::string> child_environment(
    const fs::path& dir, const std::vector<std::string>& extra) {
  std::vector<std::string> env;
  std::string asan = "exitcode=23";
  std::string ubsan = "exitcode=23";
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string var(*entry);
    const auto starts = [&var](const char* prefix) {
      return var.rfind(prefix, 0) == 0;
    };
    if (starts("CCMX_") || starts("TMPDIR=")) continue;
    if (starts("ASAN_OPTIONS=")) {
      asan = var.substr(var.find('=') + 1) + ":" + asan;
    } else if (starts("UBSAN_OPTIONS=")) {
      ubsan = var.substr(var.find('=') + 1) + ":" + ubsan;
    } else {
      env.push_back(var);
    }
  }
  env.push_back("ASAN_OPTIONS=" + asan);
  env.push_back("UBSAN_OPTIONS=" + ubsan);
  env.push_back("TMPDIR=" + dir.string());
  env.insert(env.end(), extra.begin(), extra.end());
  return env;
}

/// Runs program with cmd in the current directory, output discarded, and
/// returns its wait status.
int run(const std::string& program, const Command& cmd,
        const std::vector<std::string>& env) {
  std::vector<char*> argv{const_cast<char*>(program.c_str())};
  for (const std::string& arg : cmd) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  std::vector<char*> envp;
  for (const std::string& var : env) {
    envp.push_back(const_cast<char*>(var.c_str()));
  }
  envp.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, program.c_str(), &actions, nullptr,
                                  argv.data(), envp.data());
  posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) {
    ADD_FAILURE() << "cannot start " << program << ": "
                  << std::strerror(spawned);
    return -1;
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

/// A scratch directory of its own for each program, made the current one.
fs::path enter_scratch(const std::string& name) {
  const fs::path dir = fs::path(CCMX_ARG_FUZZ_DIR) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::current_path(dir);
  return dir;
}

/// Runs every seed once as it stands, expecting exit status expect[i] (any
/// of 0, 1 and 2 where it is -1), then kRuns mutated seeds, each seed
/// equally often.  Before each run the files in `inputs` (if any) are
/// copied into the current directory, over what a run may have written.
void fuzz(const std::string& program, const std::vector<Command>& seeds,
          const std::vector<int>& expect, const std::vector<std::string>& env,
          const fs::path& inputs, std::uint64_t seed) {
  const auto restore = [&inputs] {
    if (inputs.empty()) return;
    for (const fs::directory_entry& file : fs::directory_iterator(inputs)) {
      fs::copy_file(file.path(), file.path().filename(),
                    fs::copy_options::overwrite_existing);
    }
  };
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    restore();
    const int status = run(program, seeds[i], env);
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    EXPECT_TRUE(expect[i] < 0 ? code >= 0 && code <= 2 : code == expect[i])
        << quoted(program, seeds[i]) << ": status " << status;
  }
  Xoshiro256 rng(seed);
  int non_decimal = 0;
  for (int i = 0; i < kRuns; ++i) {
    Command cmd = seeds[static_cast<std::size_t>(i) % seeds.size()];
    const bool must_reject = mutate(cmd, rng);
    restore();
    const int status = run(program, cmd, env);
    ASSERT_TRUE(WIFEXITED(status))
        << quoted(program, cmd) << ": no exit, status " << status;
    const int code = WEXITSTATUS(status);
    EXPECT_TRUE(code >= 0 && code <= 2)
        << quoted(program, cmd) << ": exit " << code;
    if (must_reject) {
      ++non_decimal;
      EXPECT_EQ(code, 2) << quoted(program, cmd);
    }
  }
  EXPECT_GE(non_decimal, kRuns / 10);
}

TEST(ArgFuzz, CcmxCliExitsCleanly) {
  const fs::path dir = enter_scratch("ccmx_cli");
  // The ccmx_cli.rejects.* commands, then one small valid command each.
  const std::vector<Command> seeds{
      {"singularity", "-3", "2"}, {"mesh", "3", "70"},
      {"mesh", "0", "1"},         {"singularity", "8", "4", "7x"},
      {"solvable", "8", "4", "18446744073709551616"},
      {"rank", "5", "6"},         {"hard", "8", "3"},
      {"mesh", "3", "4", "5"},    {"singularity", "8", "4", "7"},
      {"solvable", "6", "3", "1"}, {"hard", "7", "2", "1"},
      {"rank", "8", "0", "1"},    {"mesh", "8", "4"}};
  std::vector<int> expect(seeds.size(), 2);
  std::fill(expect.begin() + 8, expect.end(), 0);
  fuzz(CCMX_CLI, seeds, expect, child_environment(dir, {}), {}, 29);
}

TEST(ArgFuzz, CcmxInsightExitsCleanly) {
  const fs::path dir = enter_scratch("ccmx_insight");
  // Inputs for trace, timeseries and profile, from one traced run.
  const fs::path inputs = dir / "inputs";
  fs::create_directory(inputs);
  const auto in = [&inputs](const char* var, const char* file) {
    return std::string(var) + "=" + (inputs / file).string();
  };
  const int made = run(
      CCMX_CLI, {"singularity", "6", "4", "3"},
      child_environment(dir, {"CCMX_TRACE=1", "CCMX_SAMPLE_MS=1",
                              "CCMX_PROF_HZ=997",
                              in("CCMX_TRACE_FILE", "trace.jsonl"),
                              in("CCMX_REPORT", "report.json"),
                              in("CCMX_SAMPLE_FILE", "samples.jsonl"),
                              in("CCMX_PROF_FILE", "profile.jsonl")}));
  ASSERT_TRUE(WIFEXITED(made) && WEXITSTATUS(made) == 0) << made;
  const std::string baseline = std::string(CCMX_REPO_ROOT) + "/bench/baseline";
  const Command diff{"diff", "--baseline", baseline, "--candidate", baseline};
  const auto with = [](Command cmd, const Command& more) {
    cmd.insert(cmd.end(), more.begin(), more.end());
    return cmd;
  };
  // The ccmx_insight.rejects.* commands, then one small valid command each.
  const std::vector<Command> seeds{
      with(diff, {"--cpu-tol", "abc"}),
      with(diff, {"--cpu-tol", "0.5x"}),
      with(diff, {"--min-iters", "3abc"}),
      with(diff, {"--cpu-tl", "0.5"}),
      with(diff, {"--insn-tol", "0.3"}),
      with(diff, {"--counter-tol", "0.25"}),
      {"trajectory", "--reports", baseline, "--out", "/dev/null"},
      {"html", "--reports", baseline, "--trajectory", "t.jsonl"},
      with(diff, {"--cpu-tol", "0.2", "--rss-tol", "0.3", "--min-iters", "3",
                  "--json", "diff.json", "--md", "diff.md"}),
      {"trace", "trace.jsonl", "--report", "report.json", "--chrome",
       "chrome.json"},
      {"timeseries", "samples.jsonl", "--json", "series.json"},
      {"profile", "profile.jsonl", "--top", "5", "--collapsed", "folded.txt"},
      {"html", "--reports", baseline, "--out", "dashboard.html", "--title",
       "t"},
      {"fit", "--law", "send-half", "--seed", "7", "--max-dev", "0"}};
  std::vector<int> expect(seeds.size(), 2);
  std::fill(expect.begin() + 8, expect.end(), 0);
#ifdef CCMX_OBS_DISABLED
  // No trace, samples or profile were written, and fit reads a trace.
  std::fill(expect.begin() + 9, expect.begin() + 12, -1);
  expect.back() = -1;
#endif
  fuzz(CCMX_INSIGHT, seeds, expect, child_environment(dir, {}), inputs, 29);
}

}  // namespace
