// util: rng determinism/statistics, the prepared divisor, parallel loops,
// narrowing, env knobs, tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <limits>
#include <utility>
#include <vector>

#include "util/divisor.hpp"
#include "util/env.hpp"
#include "util/narrow.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/sweep.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace ccmx::util;

TEST(Rng, DeterministicBySeed) {
  Xoshiro256 a(42), b(42), c(43);
  bool all_equal = true;
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a(), vb = b(), vc = c();
    all_equal = all_equal && va == vb;
    any_diff = any_diff || va != vc;
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff);
}

TEST(Rng, BelowIsInRangeAndRoughlyUniform) {
  Xoshiro256 rng(7);
  std::vector<int> buckets(10, 0);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t v = rng.below(10);
    ASSERT_LT(v, 10u);
    ++buckets[static_cast<std::size_t>(v)];
  }
  for (const int count : buckets) {
    EXPECT_GT(count, 9000);
    EXPECT_LT(count, 11000);
  }
  EXPECT_THROW((void)rng.below(0), contract_error);
}

TEST(Rng, PreparedBoundDrawsWhatBelowDraws) {
  // below(prepare(b)) must return below(b)'s values from the same stream
  // and leave the generator where below(b) leaves it, rejections included.
  std::vector<std::uint64_t> bounds = {1, 2, 3, std::uint64_t{1} << 32,
                                       (std::uint64_t{1} << 63) + 1,
                                       ~std::uint64_t{0}};
  for (unsigned k = 2; k <= 20; ++k) bounds.push_back((1u << k) - 1);
  // The sampled row census's digit-group bounds q^w: 3^3, 3^4, 3^5, 7^2
  // and 15^2, drawn at (9, 2), (11, 2), (9, 3), (7, 2) and (7, 4).
  bounds.insert(bounds.end(), {27, 81, 243, 49, 225});
  Xoshiro256 bound_rng(31);
  for (int i = 0; i < 20; ++i) {
    // Random bounds of every width from 1 to 64 bits.
    const std::uint64_t word = bound_rng();
    bounds.push_back(std::max<std::uint64_t>(1, word >> bound_rng.below(64)));
  }
  for (const std::uint64_t bound : bounds) {
    const Xoshiro256::Bound prepared = Xoshiro256::prepare(bound);
    Xoshiro256 plain(bound ^ 0x5eed);
    Xoshiro256 fast(bound ^ 0x5eed);
    bool same = true;
    for (int draw = 0; draw < 100000 && same; ++draw) {
      same = plain.below(bound) == fast.below(prepared);
    }
    EXPECT_TRUE(same) << "bound " << bound;
    EXPECT_EQ(plain(), fast()) << "bound " << bound;  // the same state
  }
  // 2^63 + 1 rejects the draws below 2^64 mod b = 2^63 - 1.
  EXPECT_EQ(Xoshiro256::prepare((std::uint64_t{1} << 63) + 1).threshold,
            (std::uint64_t{1} << 63) - 1);
  EXPECT_THROW((void)Xoshiro256::prepare(0), contract_error);
}

/// Divisors of every width: the ends of the range, Mersenne-style and
/// power-of-two values, and seeded ones of 1 to 64 bits.
std::vector<std::uint64_t> test_divisors() {
  std::vector<std::uint64_t> divisors = {
      1, 2, 3, 7, 255, 65535, (std::uint64_t{1} << 32) - 1,
      std::uint64_t{1} << 32, (std::uint64_t{1} << 63) - 1,
      std::uint64_t{1} << 63, (std::uint64_t{1} << 63) + 1, ~std::uint64_t{0}};
  Xoshiro256 rng(17);
  for (int i = 0; i < 64; ++i) {
    divisors.push_back(std::max<std::uint64_t>(1, rng() >> rng.below(64)));
  }
  return divisors;
}

TEST(Divisor, QuotientAndRemainderMatchTheOperators) {
  Xoshiro256 rng(23);
  for (const std::uint64_t d : test_divisors()) {
    const Divisor divisor(d);
    std::vector<std::uint64_t> numerators = {0, 1, d - 1, d, d + 1, 2 * d,
                                             ~std::uint64_t{0}};
    for (int i = 0; i < 200; ++i) numerators.push_back(rng() >> rng.below(64));
    for (const std::uint64_t n : numerators) {
      EXPECT_EQ(divisor.quotient(n), n / d) << n << " / " << d;
      EXPECT_EQ(divisor.remainder(n), n % d) << n << " % " << d;
    }
  }
}

TEST(Divisor, FloorAndCeilMatchTheOperatorsOnSignedNumerators) {
  // The reference divides with `/` on i128, which truncates, and rounds
  // the inexact quotients toward -inf (floor) or +inf (ceil).
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  Xoshiro256 rng(29);
  for (const std::uint64_t d : test_divisors()) {
    const Divisor divisor(d);
    const i128 b = d;
    std::vector<std::int64_t> numerators = {
        0, 1, -1, kMax, -kMax, std::numeric_limits<std::int64_t>::min()};
    // Exact multiples and their neighbours, on both sides of 0.
    for (const i128 k : {i128{1}, i128{2}, i128{kMax} / b}) {
      for (const i128 v : {k * b, -k * b}) {
        for (const i128 near : {v - 1, v, v + 1}) {
          if (near >= -i128{kMax} - 1 && near <= i128{kMax}) {
            numerators.push_back(static_cast<std::int64_t>(near));
          }
        }
      }
    }
    for (int i = 0; i < 200; ++i) {
      numerators.push_back(static_cast<std::int64_t>(rng()) >> rng.below(64));
    }
    for (const std::int64_t n : numerators) {
      const i128 a = n;
      const i128 quot = a / b;
      const bool inexact = quot * b != a;
      EXPECT_EQ(i128{divisor.floor(n)}, quot - (inexact && a < 0 ? 1 : 0))
          << "floor(" << n << " / " << d << ")";
      EXPECT_EQ(i128{divisor.ceil(n)}, quot + (inexact && a > 0 ? 1 : 0))
          << "ceil(" << n << " / " << d << ")";
    }
  }
}

TEST(Rng, RangeEndpointsReachable) {
  Xoshiro256 rng(8);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.range(-2, 2));
  EXPECT_EQ(seen, (std::set<std::int64_t>{-2, -1, 0, 1, 2}));
}

TEST(Rng, SampleWithoutReplacement) {
  Xoshiro256 rng(9);
  const auto sample = sample_without_replacement(100, 30, rng);
  EXPECT_EQ(sample.size(), 30u);
  EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
  EXPECT_EQ(std::set<std::size_t>(sample.begin(), sample.end()).size(), 30u);
  for (const std::size_t v : sample) EXPECT_LT(v, 100u);
  // Full sample is a permutation of the universe.
  const auto full = sample_without_replacement(10, 10, rng);
  EXPECT_EQ(full.size(), 10u);
  EXPECT_EQ(full.front(), 0u);
  EXPECT_EQ(full.back(), 9u);
}

/// Floyd's algorithm with a linear membership scan: the reference the
/// bitmap version must reproduce draw for draw.
std::vector<std::size_t> reference_sample(std::size_t universe,
                                          std::size_t size, Xoshiro256& rng) {
  std::vector<std::size_t> chosen;
  for (std::size_t j = universe - size; j < universe; ++j) {
    const std::size_t t = rng.below(j + 1);
    if (std::find(chosen.begin(), chosen.end(), t) == chosen.end()) {
      chosen.push_back(t);
    } else {
      chosen.push_back(j);
    }
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

TEST(Rng, SampleWithoutReplacementMatchesReferenceFloyd) {
  for (const auto& [universe, size] :
       std::vector<std::pair<std::size_t, std::size_t>>{{0, 0},
                                                        {1, 1},
                                                        {10, 10},
                                                        {100, 30},
                                                        {1000, 999},
                                                        {4096, 1},
                                                        {30752, 15376}}) {
    Xoshiro256 rng(universe + size);
    Xoshiro256 ref_rng(universe + size);
    EXPECT_EQ(sample_without_replacement(universe, size, rng),
              reference_sample(universe, size, ref_rng))
        << universe << " choose " << size;
    EXPECT_EQ(rng(), ref_rng());  // the same number of draws
  }
}

TEST(Rng, RandomPermutationIsPermutation) {
  Xoshiro256 rng(10);
  const auto perm = random_permutation(50, rng);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(Parallel, ForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, PropagatesExceptions) {
  EXPECT_THROW(parallel_for(0, 100,
                            [](std::size_t i) {
                              if (i == 37) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(Parallel, ForPropagatesFirstExceptionOnly) {
  // Several shards may throw; exactly one exception must surface and the
  // call must still join every worker (no crash, no deadlock).
  EXPECT_THROW(parallel_for(0, 10000,
                            [](std::size_t i) {
                              if (i % 1000 == 0) {
                                throw std::runtime_error("shard boom");
                              }
                            }),
               std::runtime_error);
}

TEST(Parallel, ReducePropagatesBodyException) {
  EXPECT_THROW(
      (void)parallel_reduce<int>(
          0, 1000, []() { return 0; },
          [](int&, std::size_t i) {
            if (i == 500) throw std::logic_error("reduce boom");
          },
          [](int& into, const int& from) { into += from; }),
      std::logic_error);
}

TEST(Parallel, ReduceSumsCorrectly) {
  const auto total = parallel_reduce<long long>(
      1, 1001, []() { return 0LL; },
      [](long long& acc, std::size_t i) { acc += static_cast<long long>(i); },
      [](long long& into, const long long& from) { into += from; });
  EXPECT_EQ(total, 500500LL);
}

TEST(Parallel, ReduceBuildsEachAccumulatorOnTheWorkerThatUsesIt) {
  // Accumulators are made by the worker that first takes a slot, so what
  // they allocate comes from that worker, never from the caller; the total
  // is the same at every degree.  Each index sleeps so that the workers
  // wake before the caller has drained every chunk.
  struct Acc {
    std::thread::id maker = std::this_thread::get_id();
    long long sum = 0;
    bool foreign = false;
  };
  for (const std::size_t degree : {1u, 2u, 4u}) {
    set_parallelism(degree);
    const Acc total = parallel_reduce<Acc>(
        0, 400, [] { return Acc{}; },
        [](Acc& acc, std::size_t i) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          acc.sum += static_cast<long long>(i);
          acc.foreign = acc.foreign || acc.maker != std::this_thread::get_id();
        },
        [](Acc& into, const Acc& from) {
          into.sum += from.sum;
          into.foreign = into.foreign || from.foreign;
        });
    EXPECT_EQ(total.sum, 400LL * 399 / 2) << degree;
    EXPECT_FALSE(total.foreign) << degree;
  }
  set_parallelism(0);
}

TEST(Parallel, SetParallelismOverridesDegree) {
  const std::size_t original = parallelism();
  set_parallelism(3);
  EXPECT_EQ(parallelism(), 3u);
  set_parallelism(0);
  EXPECT_EQ(parallelism(), original);
}

TEST(Parallel, NestedCallsSerializeInline) {
  // A parallel_for issued from inside a parallel body must not deadlock on
  // the shared pool; it runs serially inline and still covers every index.
  set_parallelism(4);
  std::vector<std::atomic<int>> hits(64 * 64);
  parallel_for(0, 64, [&](std::size_t i) {
    parallel_for(0, 64, [&](std::size_t j) { hits[i * 64 + j]++; });
  });
  set_parallelism(0);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ConcurrentCallsFromTwoThreadsBothComplete) {
  // While one thread holds the pool, a second caller serializes inline;
  // both calls must cover their ranges exactly once.
  set_parallelism(4);
  std::vector<std::atomic<int>> mine(20000);
  std::vector<std::atomic<int>> theirs(20000);
  std::thread other([&] {
    parallel_for(0, theirs.size(), [&](std::size_t i) { theirs[i]++; });
  });
  parallel_for(0, mine.size(), [&](std::size_t i) { mine[i]++; });
  other.join();
  set_parallelism(0);
  for (const auto& h : mine) EXPECT_EQ(h.load(), 1);
  for (const auto& h : theirs) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, PoolSurvivesManySmallCalls) {
  // Persistent workers: repeated invocations reuse the parked pool.
  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 200; ++round) {
    parallel_for(0, 64, [&](std::size_t i) { total += i; });
  }
  EXPECT_EQ(total.load(), 200u * (63u * 64u / 2u));
}

TEST(Sweep, VisitsEveryIndexOnceWithItsDigits) {
  // Every index of [0, 3^5) must be visited exactly once, with dv its
  // little-endian base-3 digits, however the pool chunks the space.
  constexpr std::uint64_t kPow3[5] = {1, 3, 9, 27, 81};
  constexpr std::uint64_t kSpace = 243;
  struct St {
    std::vector<std::uint32_t> hits = std::vector<std::uint32_t>(kSpace);
    std::uint64_t chunk_items = 0;
  };
  set_parallelism(4);
  const auto states = sweep_digits(
      3, 5, [] { return St{}; },
      [&](St& st, const std::vector<std::uint32_t>& dv) {
        std::uint64_t index = 0;
        for (std::size_t d = 0; d < dv.size(); ++d) {
          EXPECT_LT(dv[d], 3u);
          index += dv[d] * kPow3[d];
        }
        ++st.hits[index];
      },
      [](St& st, std::uint64_t items) { st.chunk_items += items; });
  set_parallelism(0);
  std::vector<std::uint32_t> hits(kSpace);
  std::uint64_t chunk_items = 0;
  for (const St& st : states) {
    for (std::size_t i = 0; i < kSpace; ++i) hits[i] += st.hits[i];
    chunk_items += st.chunk_items;
  }
  for (std::size_t i = 0; i < kSpace; ++i) EXPECT_EQ(hits[i], 1u) << i;
  EXPECT_EQ(chunk_items, kSpace);
}

TEST(Sweep, SpaceSizeOverflowIsRejected) {
  EXPECT_EQ(digit_space_size(3, 5), 243u);
  EXPECT_EQ(digit_space_size(1, 100), 1u);
  EXPECT_THROW((void)digit_space_size(3, 41), contract_error);  // > 2^64
}

TEST(Sweep, SpaceWithinBudgetIsDecidedInIntegers) {
  // Boundaries where comparing digits * log2(q) with log2(budget) in
  // doubles goes wrong: it reads 7^9 and 15^15 (row_census's space at
  // (7, 4)) as over budgets of exactly that size, 3^31 as within 3^31 - 1.
  EXPECT_EQ(digit_space_within(7, 9, 40353607), 40353607u);
  EXPECT_EQ(digit_space_within(7, 9, 40353606), std::nullopt);
  const std::uint64_t three_31 = 617673396283947;
  EXPECT_EQ(digit_space_within(3, 31, three_31 - 1), std::nullopt);
  EXPECT_EQ(digit_space_within(3, 31, three_31), three_31);
  const std::uint64_t fifteen_15 = 437893890380859375;
  EXPECT_EQ(digit_space_within(15, 15, fifteen_15), fifteen_15);
  EXPECT_EQ(digit_space_within(15, 15, fifteen_15 - 1), std::nullopt);
  // Spaces past 2^64 are refused without overflowing.
  const std::uint64_t max = ~std::uint64_t{0};
  EXPECT_EQ(digit_space_within(2, 63, max), std::uint64_t{1} << 63);
  EXPECT_EQ(digit_space_within(2, 64, max), std::nullopt);
  EXPECT_EQ(digit_space_within(std::uint64_t{1} << 32, 3, max), std::nullopt);
  EXPECT_EQ(digit_space_within(1, 100, 1), 1u);
  EXPECT_EQ(digit_space_within(3, 0, 0), std::nullopt);
}

TEST(Timer, CpuSecondsAdvancesUnderWork) {
  WallTimer timer;
  // Burn a little CPU; volatile stops the loop from being optimized out.
  volatile std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < 20000000; ++i) sink = sink + i;
  EXPECT_GT(timer.cpu_seconds(), 0.0);
  EXPECT_GT(timer.seconds(), 0.0);
  timer.reset();
  // After reset both clocks restart near zero (well under the burn time).
  EXPECT_LT(timer.cpu_seconds(), 0.5);
}

TEST(Timer, CpuSecondsSumsAcrossThreads) {
  WallTimer timer;
  std::atomic<std::uint64_t> total{0};
  parallel_for(0, 4, [&](std::size_t) {
    volatile std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < 10000000; ++i) sink = sink + i;
    total += sink;
  });
  // Process CPU time accumulates over all workers, so it is at least
  // positive; on multicore hosts it typically exceeds wall time.
  EXPECT_GT(timer.cpu_seconds(), 0.0);
  EXPECT_GT(total.load(), 0u);
}

TEST(Narrow, AcceptsExactAndRejectsLossy) {
  EXPECT_EQ(narrow<std::uint8_t>(255), 255u);
  EXPECT_THROW((void)narrow<std::uint8_t>(256), contract_error);
  EXPECT_THROW((void)narrow<std::uint32_t>(-1), contract_error);
  EXPECT_EQ(narrow<int>(std::int64_t{123}), 123);
}

// Every CCMX_* knob reads its whole value and checks its range; any
// other value warns once on stderr, naming the variable, and yields the
// knob's default.
TEST(EnvKnob, IntegerKnobAcceptsOnlyWholeValuesInRange) {
  const char* name = "CCMX_TEST_ENV_INT";
  const auto read = [name](const char* value) {
    ::setenv(name, value, /*overwrite=*/1);
    return env_int(name, 1, 100, 42);
  };
  EXPECT_EQ(read("20"), 20);
  EXPECT_EQ(read("1"), 1);
  EXPECT_EQ(read("100"), 100);
  for (const char* bad : {"20ms", "97abc", " 20", "20 ", "+20", "0x10", "0",
                          "101", "-5", "99999999999999999999", "ms"}) {
    testing::internal::CaptureStderr();
    EXPECT_EQ(read(bad), 42) << bad;
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find(std::string(name) + "=" + bad), std::string::npos)
        << err;
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  }
  // Unset or empty means the default, silently.
  testing::internal::CaptureStderr();
  EXPECT_EQ(read(""), 42);
  ::unsetenv(name);
  EXPECT_EQ(env_int(name, 1, 100, 42), 42);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(EnvKnob, FlagKnobAcceptsOnlyTheDocumentedSpellings) {
  const char* name = "CCMX_TEST_ENV_FLAG";
  const auto read = [name](const char* value) {
    ::setenv(name, value, /*overwrite=*/1);
    return env_flag(name);
  };
  testing::internal::CaptureStderr();
  for (const char* on : {"1", "true", "on", "yes"}) EXPECT_TRUE(read(on)) << on;
  for (const char* off : {"", "0", "false", "off", "no"}) {
    EXPECT_FALSE(read(off)) << off;
  }
  ::unsetenv(name);
  EXPECT_FALSE(env_flag(name));
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  for (const char* bad : {"2", "TRUE", "enable", "1 "}) {
    testing::internal::CaptureStderr();
    EXPECT_FALSE(read(bad)) << bad;
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find(std::string(name) + "=" + bad), std::string::npos)
        << err;
  }
  ::unsetenv(name);
}

TEST(Table, RendersAlignedMarkdown) {
  TextTable table({"name", "value"});
  table.row("alpha", 12);
  table.row("b", 3.5);
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| alpha |"), std::string::npos);
  EXPECT_NE(out.find("3.500"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
  TextTable strict({"a"});
  EXPECT_THROW(strict.add_row({"1", "2"}), contract_error);
}

}  // namespace
