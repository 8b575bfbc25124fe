// Coordinator-state persistence (core::save_state / core::load_state and
// the encode_snapshot / decode_snapshot pair under them) over a 1-shard
// synchronous sharded_coordinator: bit-exact frozen/open round trips,
// deterministic output, the fence, and typed rejection of damaged or
// malformed input that restores nothing.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>

#include "core/byte_codec.h"
#include "core/epoch_record.h"
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

TEST(Persist, RoundTripIsBitExact) {
  persist_fixture fx;
  const auto orig = fx.populated();
  std::string bytes;
  const auto back = fx.round_trip(*orig, &bytes);

  // Raw IEEE-754 bits make the round trip lossless: every double compares
  // equal bit-for-bit, and re-saving reproduces the same bytes.
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
  // before kUdp's 3:-2, so every NetC entry precedes every NetB one.
  EXPECT_LT(bytes.rfind("NetC"), bytes.find("NetB"));
}

TEST(Persist, EmptyTableRoundTrip) {
  persist_fixture fx;
  const auto empty = fx.fresh();
  std::string bytes;
  const auto back = fx.round_trip(*empty, &bytes);
  // Magic, fence 0, the end tag, alert sequence 0 and the checksum.
  EXPECT_EQ(bytes.size(), 17u + 8 + 1 + 8 + 4);
  EXPECT_EQ(bytes.rfind("WISCAPE-COORD v3\n", 0), 0u);
  EXPECT_TRUE(back->keys().empty());
}

// A snapshot body with a valid checksum: `entries` between the fence and
// the end tag, as the encoder lays them out.
std::string signed_snapshot(const std::string& entries,
                            const std::string& after_end = "") {
  std::string s = "WISCAPE-COORD v3\n";
  put_u64(s, 0);
  s += entries;
  put_u8(s, 0);
  put_u64(s, 0);
  s += after_end;
  put_u32(s, fnv1a32(s));
  return s;
}

std::string frozen_entry(const epoch_record& r) {
  std::string e;
  put_u8(e, 1);
  put_epoch_record(e, r);
  return e;
}

TEST(Persist, RejectsMalformedInput) {
  persist_fixture fx;
  const epoch_record good{0, {1, 1}, "NetB", trace::metric::rtt_s,
                          0.0, 1.0, 1.0, 1};
  epoch_record far_zone = good;
  far_zone.zone = {1 << 24, 0};
  std::string bad_metric = frozen_entry(good);
  bad_metric[1 + 8 + 4 + 4] = 9;  // the metric byte
  std::string cut_record = frozen_entry(good);
  cut_record.resize(cut_record.size() - 3);
  std::string bad_sum = signed_snapshot(frozen_entry(good));
  bad_sum.back() ^= 0x01;
  for (const std::string& bad : {
           std::string("nope\n"),                     // header
           std::string(),                              // empty
           bad_sum,                                    // checksum
           signed_snapshot(std::string(1, '\x07')),    // tag
           signed_snapshot(bad_metric),                // metric
           signed_snapshot(frozen_entry(far_zone)),    // zone
           signed_snapshot(cut_record),                // record
           signed_snapshot(frozen_entry(good), "x"),   // trailing
       }) {
    const auto c = fx.fresh();
    EXPECT_THROW(decode_snapshot(bad, *c), std::invalid_argument)
        << ::testing::PrintToString(bad);
    EXPECT_TRUE(c->keys().empty());
  }
  // The same entry, signed and well formed, loads.
  const auto c = fx.fresh();
  EXPECT_EQ(decode_snapshot(signed_snapshot(frozen_entry(good)), *c), 0u);
  EXPECT_EQ(c->history({{1, 1}, "NetB", trace::metric::rtt_s}).size(), 1u);
}

TEST(Persist, SnapshotCutAtEveryByteThrowsAndRestoresNothing) {
  persist_fixture fx;
  const std::string full = encode_snapshot(*fx.populated(), 7);
  const auto c = fx.fresh();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    EXPECT_THROW(decode_snapshot(std::string_view(full).substr(0, cut), *c),
                 std::invalid_argument)
        << "cut at byte " << cut;
    ASSERT_TRUE(c->keys().empty()) << "cut at byte " << cut;
  }
  EXPECT_EQ(decode_snapshot(full, *c), 7u);
}

TEST(Persist, SnapshotWithAnyByteFlippedThrowsAndRestoresNothing) {
  persist_fixture fx;
  const std::string full = encode_snapshot(*fx.populated(), 7);
  const auto c = fx.fresh();
  for (std::size_t at = 0; at < full.size(); ++at) {
    std::string bad = full;
    bad[at] = static_cast<char>(~bad[at]);
    EXPECT_THROW(decode_snapshot(bad, *c), std::invalid_argument)
        << "byte " << at;
    ASSERT_TRUE(c->keys().empty()) << "byte " << at;
  }
}

TEST(Persist, SnapshotCarriesItsFence) {
  persist_fixture fx;
  const auto orig = fx.populated();
  const auto back = fx.fresh();
  EXPECT_EQ(decode_snapshot(encode_snapshot(*orig, 123456789), *back),
            123456789u);
  EXPECT_EQ(saved(*back), saved(*orig));
  // save_state writes fence 0, and load_state reports it.
  std::stringstream ss;
  save_state(ss, *orig);
  EXPECT_EQ(load_state(ss, *fx.fresh()), 0u);
}

TEST(Persist, RejectsRetiredZoneTableFormat) {
  // The bare zone-table snapshot ("WISCAPE-ZONETABLE v1/v2") and the text
  // coordinator snapshot ("WISCAPE-COORD v2") are retired: coordinator
  // state has one format, and the loader says so by header.
  persist_fixture fx;
  for (const char* header :
       {"WISCAPE-ZONETABLE v1\n", "WISCAPE-ZONETABLE v2\n",
        "WISCAPE-COORD v2\n"}) {
    std::stringstream ss(std::string(header) +
                         "EST 3:-2 NetB udp_throughput 0 1000000 50000 20\n"
                         "ALERTSEQ 0\n");
    const auto c = fx.fresh();
    EXPECT_THROW(load_state(ss, *c), std::invalid_argument) << header;
  }
}

TEST(Persist, FileRoundTrip) {
  persist_fixture fx;
  const auto orig = fx.populated();
  const std::string path = ::testing::TempDir() + "/wiscape_state.bin";
  {
    std::ofstream os(path, std::ios::binary);
    save_state(os, *orig);
  }
  std::ifstream is(path, std::ios::binary);
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
