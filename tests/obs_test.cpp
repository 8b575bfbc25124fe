#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/registry.h"
#include "obs/snapshot_writer.h"
#include "obs/span.h"

namespace wiscape::obs {
namespace {

TEST(ObsRegistry, ConcurrentIncrementsSumExactly) {
  registry reg;
  counter& c = reg.get_counter("test.hits");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsRegistry, ConcurrentHistogramRecordsSumExactly) {
  registry reg;
  histogram& h = reg.get_histogram("test.latency_s");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.record(1e-3);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  // All observations land in the <= 1e-3 bucket (index 3) and nowhere else.
  EXPECT_EQ(h.bucket(3), h.count());
  EXPECT_NEAR(h.sum_s(), kThreads * kPerThread * 1e-3, 1e-3);
}

TEST(ObsRegistry, HistogramBucketEdges) {
  registry reg;
  histogram& h = reg.get_histogram("test.edges");
  // Buckets hold v <= edge (first edge that is >= the value); the last
  // bucket is the +inf overflow.
  h.record(0.5e-6);  // below first edge        -> bucket 0 (le_1e-06)
  h.record(1e-6);    // exactly on an edge      -> bucket 0 (inclusive)
  h.record(2e-6);    // between 1e-6 and 1e-5   -> bucket 1
  h.record(0.5);     // between 0.1 and 1.0     -> bucket 6
  h.record(100.0);   // beyond the last edge    -> overflow bucket 8
  h.record(-1.0);    // negative clamps to zero -> bucket 0
  EXPECT_EQ(h.bucket(0), 3u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(6), 1u);
  EXPECT_EQ(h.bucket(histogram::num_buckets - 1), 1u);
  EXPECT_EQ(h.count(), 6u);
}

TEST(ObsRegistry, SnapshotIsDeterministicAndSorted) {
  const auto build = [] {
    registry reg;
    reg.get_counter("z.last").inc(7);
    reg.get_gauge("a.first").set(-3);
    histogram& h = reg.get_histogram("m.lat_s");
    h.record(1e-4);
    h.record(1e-4);
    h.record(5.0);
    return reg.snapshot();
  };
  const auto s1 = build();
  const auto s2 = build();
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].name, s2[i].name);
    EXPECT_EQ(s1[i].value, s2[i].value);
  }
  // Sorted by name, gauge first.
  EXPECT_EQ(s1.front().name, "a.first");
  EXPECT_EQ(s1.front().value, -3.0);
  EXPECT_EQ(s1.back().name, "z.last");
  EXPECT_EQ(s1.back().value, 7.0);
  // Histogram expansion: cumulative le_* buckets + count + sum.
  double le_1e4 = -1, le_inf = -1, count = -1, sum = -1;
  for (const auto& s : s1) {
    if (s.name == "m.lat_s.le_0.0001") le_1e4 = s.value;
    if (s.name == "m.lat_s.le_inf") le_inf = s.value;
    if (s.name == "m.lat_s.count") count = s.value;
    if (s.name == "m.lat_s.sum_s") sum = s.value;
  }
  EXPECT_EQ(le_1e4, 2.0);   // both 1e-4 observations
  EXPECT_EQ(le_inf, 3.0);   // cumulative: everything
  EXPECT_EQ(count, 3.0);
  EXPECT_NEAR(sum, 5.0002, 1e-6);
}

TEST(ObsRegistry, NameCollisionAcrossKindsThrows) {
  registry reg;
  reg.get_counter("same.name");
  EXPECT_THROW(reg.get_gauge("same.name"), std::invalid_argument);
  EXPECT_THROW(reg.get_histogram("same.name"), std::invalid_argument);
  // Same kind returns the same instrument.
  counter& a = reg.get_counter("same.name");
  counter& b = reg.get_counter("same.name");
  EXPECT_EQ(&a, &b);
}

TEST(ObsRegistry, GaugeTracksLevelAndMax) {
  registry reg;
  gauge& g = reg.get_gauge("test.depth");
  g.set(5);
  g.add(3);
  EXPECT_EQ(g.value(), 8);
  gauge& hw = reg.get_gauge("test.high_water");
  hw.record_max(4);
  hw.record_max(9);
  hw.record_max(2);  // lower: no effect
  EXPECT_EQ(hw.value(), 9);
}

TEST(ObsRegistry, DisabledIncrementsAreDropped) {
  registry reg;
  counter& c = reg.get_counter("test.off");
  histogram& h = reg.get_histogram("test.off_hist");
  set_enabled(false);
  c.inc(10);
  h.record(0.5);
  {
    span s(h);  // span constructed while disabled records nothing
  }
  set_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  c.inc(2);
  EXPECT_EQ(c.value(), 2u);
}

TEST(ObsRegistry, FormatValuePrintsIntegersWithoutPoint) {
  EXPECT_EQ(format_value({"n", 42.0, true}), "42");
  EXPECT_EQ(format_value({"n", -3.0, true}), "-3");
  EXPECT_EQ(format_value({"n", 0.25, false}), "0.25");
}

TEST(ObsSpan, RecordsElapsedIntoHistogram) {
  registry reg;
  histogram& h = reg.get_histogram("test.span_s");
  {
    span s(h);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(h.count(), 1u);
  EXPECT_GE(h.sum_s(), 0.002);
  EXPECT_LT(h.sum_s(), 10.0);
}

TEST(ObsSnapshotWriter, WritesParseableJsonLines) {
  registry reg;
  reg.get_counter("w.events").inc(3);
  // Per-process name: concurrent ctest runs share TempDir().
  const std::string path = ::testing::TempDir() + "obs_snapshot_writer_test_" +
                           std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());
  {
    snapshot_writer writer(path, std::chrono::milliseconds(10), reg);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }  // destructor stops + writes the final snapshot
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.rfind("{\"seq\":", 0), 0u) << line;
    EXPECT_NE(line.find("\"metrics\":{"), std::string::npos) << line;
    EXPECT_NE(line.find("\"w.events\":3"), std::string::npos) << line;
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_GE(lines, 1u);  // at least the final snapshot
  std::remove(path.c_str());
}

TEST(ObsSnapshotWriter, OneShotSnapshotMatchesRegistry) {
  registry reg;
  reg.get_counter("one.count").inc(5);
  reg.get_gauge("one.level").set(-2);
  std::ostringstream os;
  write_snapshot_json(os, reg, 7, 1.25);
  EXPECT_EQ(os.str(),
            "{\"seq\":7,\"uptime_s\":1.250,\"metrics\":"
            "{\"one.count\":5,\"one.level\":-2}}\n");
}

TEST(ObsRegistry, SnapshotFlagsMonotoneSamples) {
  registry reg;
  reg.get_counter("m.count").inc(3);
  reg.get_gauge("m.level").set(4);
  reg.get_histogram("m.lat_s").record(0.5);
  for (const metric_sample& s : reg.snapshot()) {
    if (s.name == "m.level") {
      // Gauges move both ways; never monotone.
      EXPECT_FALSE(s.monotone) << s.name;
    } else {
      // Counters and every histogram-derived sample (cumulative buckets,
      // count, sum) only grow.
      EXPECT_TRUE(s.monotone) << s.name;
    }
  }
}

TEST(ObsRegistry, NoMonotoneSampleDecreasesBetweenSnapshots) {
  // Regression for the scenario engine's counter-monotonicity invariant:
  // under concurrent traffic, consecutive snapshots never show a monotone
  // sample decreasing (or disappearing).
  registry reg;
  counter& c = reg.get_counter("mono.count");
  histogram& h = reg.get_histogram("mono.lat_s");
  gauge& g = reg.get_gauge("mono.level");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      c.inc();
      h.record(1e-5 * static_cast<double>(i % 2000));
      g.set(static_cast<std::int64_t>(i % 17) - 8);
      ++i;
    }
  });
  std::vector<metric_sample> prev = reg.snapshot();
  for (int round = 0; round < 200; ++round) {
    std::vector<metric_sample> cur = reg.snapshot();
    std::size_t pi = 0;
    for (const metric_sample& s : cur) {
      while (pi < prev.size() && prev[pi].name < s.name) ++pi;
      if (pi == prev.size()) break;
      if (prev[pi].name != s.name || !prev[pi].monotone) continue;
      EXPECT_GE(s.value, prev[pi].value) << s.name << " round " << round;
    }
    prev = std::move(cur);
  }
  stop.store(true);
  writer.join();
}

}  // namespace
}  // namespace wiscape::obs
