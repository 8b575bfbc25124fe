// Coordinator-state persistence (core::save_state / core::load_state) over
// a 1-shard synchronous sharded_coordinator: bit-exact EST/OPEN round
// trips, deterministic output, and typed rejection of malformed input.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>

#include "core/persist.h"
#include "test_util.h"

namespace wiscape::core {
namespace {

const estimate_key kUdp{{3, -2}, "NetB", trace::metric::udp_throughput_bps};
const estimate_key kRtt{{0, 5}, "NetC", trace::metric::rtt_s};

struct persist_fixture {
  geo::zone_grid grid{geo::projection(cellnet::anchors::madison), 250.0};

  static coordinator_config cfg() {
    coordinator_config c;
    c.epochs.default_epoch_s = 100.0;
    return c;
  }

  std::unique_ptr<sharded_coordinator> fresh() const {
    return std::make_unique<sharded_coordinator>(
        grid, std::vector<std::string>{"NetB", "NetC"},
        testing::sequential(cfg()), 1);
  }

  /// Four epochs of 20 samples on two streams: three frozen epochs and an
  /// open one (t = 300..319) per stream.
  std::unique_ptr<sharded_coordinator> populated() const {
    auto c = fresh();
    stats::rng_stream r(4);
    for (int epoch = 0; epoch < 4; ++epoch) {
      for (int i = 0; i < 20; ++i) {
        const double t = epoch * 100.0 + i;
        c->report(testing::make_record(t, "NetB", grid.center(kUdp.zone),
                                       trace::probe_kind::udp_burst,
                                       r.normal(1e6, 5e4)));
        c->report(testing::make_record(t, "NetC", grid.center(kRtt.zone),
                                       trace::probe_kind::ping,
                                       r.normal(0.12, 0.01)));
      }
    }
    return c;
  }

  std::unique_ptr<sharded_coordinator> round_trip(
      const sharded_coordinator& from, std::string* bytes = nullptr) const {
    std::stringstream ss;
    save_state(ss, from);
    if (bytes != nullptr) *bytes = ss.str();
    auto back = fresh();
    load_state(ss, *back);
    return back;
  }
};

std::string saved(const sharded_coordinator& c) {
  std::stringstream ss;
  save_state(ss, c);
  return ss.str();
}

TEST(Persist, RoundTripPreservesHistory) {
  persist_fixture fx;
  const auto orig = fx.populated();
  const auto back = fx.round_trip(*orig);

  ASSERT_EQ(back->keys().size(), orig->keys().size());
  for (const auto& key : {kUdp, kRtt}) {
    ASSERT_EQ(orig->history(key).size(), 3u) << key.network;
  }
  for (const auto& key : orig->keys()) {
    const auto want = orig->history(key);
    const auto got = back->history(key);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].samples, want[i].samples);
      EXPECT_EQ(got[i].epoch_start_s, want[i].epoch_start_s);
    }
  }
}

TEST(Persist, RestoredTableKeepsAccumulating) {
  persist_fixture fx;
  const auto back = fx.round_trip(*fx.populated());

  // The format carries the interrupted open epoch (20 samples at
  // t = 300..319), so the first post-restart sample first freezes THAT
  // epoch, then accumulates into a new one: +2 frozen estimates, not +1.
  const std::size_t before = back->history(kUdp).size();
  const geo::lat_lon pos = fx.grid.center(kUdp.zone);
  for (int i = 0; i < 10; ++i) {
    back->report(testing::make_record(1000.0 + i, "NetB", pos,
                                      trace::probe_kind::udp_burst, 1e6));
  }
  back->report(testing::make_record(1200.0, "NetB", pos,
                                    trace::probe_kind::udp_burst, 1e6));
  const auto hist = back->history(kUdp);
  ASSERT_EQ(hist.size(), before + 2);
  // The recovered epoch publishes all 20 pre-restart samples.
  EXPECT_EQ(hist[before].samples, 20u);
  EXPECT_EQ(hist[before].epoch_start_s, 300.0);
}

TEST(Persist, V2RoundTripIsBitExact) {
  persist_fixture fx;
  const auto orig = fx.populated();
  std::string bytes;
  const auto back = fx.round_trip(*orig, &bytes);

  // %.17g printing makes the text round trip lossless: every double
  // compares equal bit-for-bit, and re-saving reproduces the same bytes.
  for (const auto& key : orig->keys()) {
    const auto want = orig->history(key);
    const auto got = back->history(key);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].mean, want[i].mean);
      EXPECT_EQ(got[i].stddev, want[i].stddev);
      EXPECT_EQ(got[i].samples, want[i].samples);
      EXPECT_EQ(got[i].epoch_start_s, want[i].epoch_start_s);
    }
  }
  EXPECT_EQ(saved(*back), bytes);
}

TEST(Persist, OpenEpochStateRoundTrips) {
  persist_fixture fx;
  const auto orig = fx.populated();
  const auto open = orig->open_state(kUdp);
  ASSERT_TRUE(open.has_value());
  EXPECT_EQ(open->n, 20u);

  const auto back = fx.round_trip(*orig);
  const auto restored = back->open_state(kUdp);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->open_start_s, open->open_start_s);
  EXPECT_EQ(restored->n, open->n);
  EXPECT_EQ(restored->mean, open->mean);
  EXPECT_EQ(restored->m2, open->m2);
}

TEST(Persist, DeterministicFileOrder) {
  persist_fixture fx;
  const auto a = fx.populated();
  const auto b = fx.populated();
  const std::string bytes = saved(*a);
  EXPECT_EQ(saved(*a), bytes);
  EXPECT_EQ(saved(*b), bytes);
  // Sorted by zone, then network, then metric: kRtt's zone 0:5 sorts
  // before kUdp's 3:-2.
  EXPECT_LT(bytes.find("EST 0:5 NetC"), bytes.find("EST 3:-2 NetB"));
}

TEST(Persist, EmptyTableRoundTrip) {
  persist_fixture fx;
  const auto empty = fx.fresh();
  std::string bytes;
  const auto back = fx.round_trip(*empty, &bytes);
  EXPECT_EQ(bytes, "WISCAPE-COORD v2\nALERTSEQ 0\n");
  EXPECT_TRUE(back->keys().empty());
}

TEST(Persist, RejectsMalformedInput) {
  persist_fixture fx;
  for (const char* bad : {
           "nope\n",                                             // header
           "WISCAPE-COORD v2\nEST garbage\n",                    // line
           "WISCAPE-COORD v2\nEST nozone NetB rtt 0 1 1 1\n",    // zone
           "WISCAPE-COORD v2\nEST 1:1 NetB warp 0 1 1 1\n",      // metric
           "WISCAPE-COORD v2\nOPEN 1:1 NetB rtt 0 x 1 1\n",      // open line
           "WISCAPE-COORD v2\nWHAT 1\n",                         // tag
       }) {
    std::stringstream ss(bad);
    const auto c = fx.fresh();
    EXPECT_THROW(load_state(ss, *c), std::invalid_argument) << bad;
  }
}

TEST(Persist, RejectsRetiredZoneTableFormat) {
  // The bare zone-table snapshot ("WISCAPE-ZONETABLE v1/v2") is retired:
  // coordinator state has one format, and the loader says so by header.
  persist_fixture fx;
  for (const char* header :
       {"WISCAPE-ZONETABLE v1\n", "WISCAPE-ZONETABLE v2\n"}) {
    std::stringstream ss(std::string(header) +
                         "EST 3:-2 NetB udp_throughput 0 1000000 50000 20\n");
    const auto c = fx.fresh();
    EXPECT_THROW(load_state(ss, *c), std::invalid_argument) << header;
  }
}

TEST(Persist, FileRoundTrip) {
  persist_fixture fx;
  const auto orig = fx.populated();
  const std::string path = ::testing::TempDir() + "/wiscape_state.txt";
  {
    std::ofstream os(path);
    save_state(os, *orig);
  }
  std::ifstream is(path);
  const auto back = fx.fresh();
  load_state(is, *back);
  EXPECT_EQ(back->keys().size(), orig->keys().size());
  EXPECT_EQ(saved(*back), saved(*orig));
}

TEST(MetricFromString, RoundTripsAllMetrics) {
  for (auto m : {trace::metric::tcp_throughput_bps,
                 trace::metric::udp_throughput_bps, trace::metric::loss_rate,
                 trace::metric::jitter_s, trace::metric::rtt_s,
                 trace::metric::uplink_throughput_bps}) {
    EXPECT_EQ(trace::metric_from_string(trace::to_string(m)), m);
  }
  EXPECT_THROW(trace::metric_from_string("nope"), std::invalid_argument);
}

}  // namespace
}  // namespace wiscape::core
