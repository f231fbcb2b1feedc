// Tests for gsb::util — rng determinism/statistics, streaming stats,
// memory accounting, table rendering and CLI parsing.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <regex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/cli.h"
#include "util/fault_injection.h"
#include "util/log.h"
#include "util/memory_tracker.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace gsb::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(9);
  double sum = 0;
  double sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, SampleWithoutReplacementSortedDistinct) {
  Rng rng(13);
  const auto sample = rng.sample_without_replacement(100, 20);
  ASSERT_EQ(sample.size(), 20u);
  for (std::size_t i = 1; i < sample.size(); ++i) {
    EXPECT_LT(sample[i - 1], sample[i]);
  }
  EXPECT_LT(sample.back(), 100u);
}

TEST(Rng, SampleWithoutReplacementFullRange) {
  Rng rng(13);
  const auto sample = rng.sample_without_replacement(10, 10);
  ASSERT_EQ(sample.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(sample[i], i);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(21);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = values;
  rng.shuffle(copy);
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, values);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(3);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (parent() == child());
  EXPECT_LT(equal, 3);
}

TEST(Stats, KnownMoments) {
  StatsAccumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Stats, EmptyAccumulatorIsZero) {
  StatsAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.stddev(), 0.0);
  EXPECT_EQ(acc.cv(), 0.0);
}

TEST(Stats, MergeMatchesCombinedStream) {
  Rng rng(17);
  StatsAccumulator whole;
  StatsAccumulator left;
  StatsAccumulator right;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(3.0, 2.0);
    whole.add(v);
    (i % 2 == 0 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Stats, QuantileInterpolates) {
  std::vector<double> values{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(values, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.5), 2.5);
}

TEST(MemoryTracker, TracksCurrentAndPeak) {
  MemoryTracker tracker;
  tracker.allocate(100, MemTag::kBitmaps);
  tracker.allocate(50, MemTag::kGraph);
  EXPECT_EQ(tracker.current(), 150u);
  EXPECT_EQ(tracker.peak(), 150u);
  tracker.release(100, MemTag::kBitmaps);
  EXPECT_EQ(tracker.current(), 50u);
  EXPECT_EQ(tracker.peak(), 150u);
  tracker.allocate(10, MemTag::kGraph);
  EXPECT_EQ(tracker.peak(), 150u);
  EXPECT_EQ(tracker.current(MemTag::kGraph), 60u);
}

TEST(MemoryTracker, ResetPeak) {
  MemoryTracker tracker;
  tracker.allocate(100, MemTag::kScratch);
  tracker.release(100, MemTag::kScratch);
  tracker.reset_peak();
  EXPECT_EQ(tracker.peak(), 0u);
}

TEST(MemoryTracker, ScopedAllocationBalances) {
  MemoryTracker tracker;
  {
    ScopedAllocation guard(tracker, 64, MemTag::kScratch);
    EXPECT_EQ(tracker.current(), 64u);
  }
  EXPECT_EQ(tracker.current(), 0u);
  EXPECT_EQ(tracker.peak(), 64u);
}

TEST(MemoryTracker, FormatBytes) {
  EXPECT_STREQ(format_bytes(512).c_str(), "512 B");
  EXPECT_STREQ(format_bytes(2048).c_str(), "2.00 KB");
  EXPECT_STREQ(format_bytes(3u << 20).c_str(), "3.00 MB");
}

TEST(Table, RowArityChecked) {
  TableWriter table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CsvRoundtrip) {
  TableWriter table({"x", "y"});
  table.add_row({"1", "2"});
  table.add_row({"3", "4"});
  const std::string path = ::testing::TempDir() + "gsb_table_test.csv";
  ASSERT_TRUE(table.write_csv(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buffer[256];
  std::string content;
  while (std::fgets(buffer, sizeof(buffer), f) != nullptr) content += buffer;
  std::fclose(f);
  EXPECT_EQ(content, "x,y\n1,2\n3,4\n");
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(format_seconds(0.0005), "500 us");
  EXPECT_EQ(format_seconds(0.25), "250.00 ms");
  EXPECT_EQ(format_seconds(12.5), "12.500 s");
}

TEST(Cli, ParsesFlagsAndPositionals) {
  // Note: `--flag value` is greedy, so boolean flags must use `--flag=1`,
  // be followed by another flag, or sit at the end of the command line.
  const char* argv[] = {"prog", "--scale", "0.5", "pos1", "--name=alpha",
                        "--paper"};
  Cli cli(6, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("scale", 1.0), 0.5);
  EXPECT_TRUE(cli.get_bool("paper", false));
  EXPECT_EQ(cli.get("name", ""), "alpha");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, DefaultsWhenMissing) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.get_int("threads", 4), 4);
  EXPECT_FALSE(cli.has("missing"));
}

TEST(Cli, BooleanSpellings) {
  const char* argv[] = {"prog", "--a=0", "--b=false", "--c=yes", "--d"};
  Cli cli(5, argv);
  EXPECT_FALSE(cli.get_bool("a", true));
  EXPECT_FALSE(cli.get_bool("b", true));
  EXPECT_TRUE(cli.get_bool("c", false));
  EXPECT_TRUE(cli.get_bool("d", false));
}

TEST(Cli, DoubleDashEndsFlagParsing) {
  // Everything after `--` is positional, so a boolean flag can precede a
  // positional that would otherwise be swallowed as its value.
  const char* argv[] = {"prog", "--stats", "--", "degree 5", "--not-a-flag"};
  Cli cli(5, argv);
  EXPECT_TRUE(cli.get_bool("stats", false));
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "degree 5");
  EXPECT_EQ(cli.positional()[1], "--not-a-flag");
  EXPECT_FALSE(cli.has("not-a-flag"));
}

TEST(Timer, MeasuresElapsed) {
  Timer timer;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(timer.seconds(), 0.0);
  EXPECT_GE(timer.millis(), timer.seconds() * 1000.0 * 0.99);
}

TEST(Timer, ScopedAccumAddsUp) {
  double total = 0.0;
  {
    ScopedAccumTimer guard(total);
  }
  {
    ScopedAccumTimer guard(total);
  }
  EXPECT_GE(total, 0.0);
}

TEST(Log, LinePrefixesRfc3339TimestampAndSeverity) {
  const std::string line = format_log_line(LogLevel::kWarn, "disk is tired");
  // `<rfc3339-utc> [level] <message>\n` — fixed-width, greppable prefix.
  const std::regex shape(
      R"(^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z \[warn \] disk is tired\n$)");
  EXPECT_TRUE(std::regex_match(line, shape)) << line;
  EXPECT_NE(format_log_line(LogLevel::kError, "x").find(" [error] x\n"),
            std::string::npos);
  EXPECT_NE(format_log_line(LogLevel::kInfo, "x").find(" [info ] x\n"),
            std::string::npos);
  EXPECT_NE(format_log_line(LogLevel::kDebug, "x").find(" [debug] x\n"),
            std::string::npos);
}

TEST(Log, ConsecutiveLinesStayOrderedInTime) {
  const std::string first = format_log_line(LogLevel::kInfo, "a");
  const std::string second = format_log_line(LogLevel::kInfo, "b");
  // Lexicographic order of RFC 3339 stamps is chronological order.
  EXPECT_LE(first.substr(0, 20), second.substr(0, 20));
}

// install() publishes a new schedule while threads that already passed
// the enabled() gate are inside decide(): they must read a whole
// schedule, old or new, never one being overwritten.
TEST(FaultShim, DecideRacesInstallSafely) {
  fault::Schedule first;
  first.seed = 1;
  first.ops[static_cast<std::size_t>(fault::Op::kRead)].eintr = 0.5;
  fault::Schedule second;
  second.seed = 2;
  second.ops[static_cast<std::size_t>(fault::Op::kRead)].error = 0.25;
  fault::install(first);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> decided{0};
  std::vector<std::thread> deciders;
  for (int t = 0; t < 4; ++t) {
    deciders.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)fault::decide(fault::Op::kRead, 64);
        decided.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread installer([&] {
    while (decided.load(std::memory_order_relaxed) < 100) {
      std::this_thread::yield();
    }
    for (int i = 0; i < 200; ++i) fault::install(i % 2 == 0 ? second : first);
    stop.store(true, std::memory_order_relaxed);
  });
  installer.join();
  for (std::thread& t : deciders) t.join();

  // The race leaves replay intact: each install restarts the same
  // decision sequence.
  const auto sequence = [&first] {
    fault::install(first);
    std::vector<int> kinds;
    for (int i = 0; i < 32; ++i) {
      kinds.push_back(
          static_cast<int>(fault::decide(fault::Op::kRead, 64).kind));
    }
    return kinds;
  };
  const std::vector<int> replayed = sequence();
  EXPECT_EQ(sequence(), replayed);
  fault::disable();
  EXPECT_GE(decided.load(), 100u);
}

}  // namespace
}  // namespace gsb::util
