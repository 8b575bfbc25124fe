// The request bytes of one run, generated from the workload seed before the
// timed window opens.
#pragma once

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "core/sharded_coordinator.h"

namespace perfbench {

struct inputs {
  workload wl = workload::fleet_mix;
  std::uint64_t seed = 1;
  double seconds = 10;
  rates r = kFleetRates;
  world w;

  // Fleet records: [0, kFleetWarm) are loaded in setup, the rest are the
  // window's REPORT k (record kFleetWarm + k); CHECKIN k carries the same
  // client, position and time.
  std::vector<trace::measurement_record> fleet;
  std::vector<std::string> fleet_warm_frames;  // v3 REPORTB of the warm part
  std::vector<std::string> checkin_lines;      // '\n'-terminated text
  std::vector<std::string> report_lines;

  // Freshness probes: one dedicated tcp stream per probe zone. probe_open[s]
  // opens epoch 0 in setup; probe_lines[s][j] lands in epoch j + 1, so it
  // freezes epoch j (epoch_index j).
  std::vector<trace::measurement_record> probe_open;
  std::vector<std::vector<std::string>> probe_lines;
  std::vector<std::string> probe_query;  // v3 QUERY frame per probe stream

  // Reads: the streams with a frozen epoch after the warm load, plus misses.
  std::vector<core::estimate_key> read_set;
  std::vector<proto::query_request> queries;
  std::vector<std::string> query_frames;  // v3 QUERY
  std::vector<std::uint8_t> query_sampled;
  std::vector<std::vector<proto::query_request>> queryb_items;
  std::vector<std::string> queryb_frames;  // text QUERYB, '\n'-terminated

  // Bulk pool: kBulkFrames v3 REPORTB frames of kFrameRecs records. Cycle c
  // of the pool is the same bytes with every timestamp moved c pool-lengths
  // later; patch() rewrites the raw time fields in place.
  std::vector<std::string> bulk_frames;
  std::vector<std::uint64_t> bulk_ticks;     // per record: time / kBulkDt
  std::vector<std::uint32_t> bulk_time_off;  // per record: byte offset

  bool bulk() const { return wl != workload::fleet_mix; }
  std::size_t count_for(double rate) const {
    return static_cast<std::size_t>(std::ceil(rate * seconds * kMaxStretch)) +
           2;
  }

  void patch(std::size_t f, std::uint64_t cycle) {
    std::string& fr = bulk_frames[f];
    for (std::size_t k = 0; k < kFrameRecs; ++k) {
      const std::size_t i = f * kFrameRecs + k;
      const double t =
          static_cast<double>(bulk_ticks[i] + cycle * kBulkPool) * kBulkDt;
      std::memcpy(fr.data() + bulk_time_off[i], &t, sizeof t);
    }
  }
};

inline std::string text_line(std::string s) {
  s.push_back('\n');
  return s;
}

inline std::string key_text(const core::estimate_key& k) {
  return std::to_string(k.zone.ix) + ":" + std::to_string(k.zone.iy) + "/" +
         k.network + "/" + trace::to_string(k.metric);
}

inline void sort_keys(std::vector<core::estimate_key>& keys) {
  std::sort(keys.begin(), keys.end(), [](const auto& a, const auto& b) {
    if (a.zone != b.zone) return a.zone < b.zone;
    if (a.network != b.network) return a.network < b.network;
    return a.metric < b.metric;
  });
}

inline core::sharded_config sync_config() {
  core::sharded_config c;
  c.num_shards = 1;
  c.synchronous = true;
  return c;
}

inline core::sharded_config serving_config() {
  core::sharded_config c;
  c.num_shards = kShards;
  c.synchronous = false;
  c.queue_capacity = kQueueCapacity;
  c.drain_batch = kDrainBatch;
  return c;
}

inline void make_fleet(inputs& in) {
  rng g(rng::mix(in.seed ^ 0xf1ee7ull));
  const zipf zone_pop(kFleetZones, kFleetZipf);
  // Popularity rank -> zone, shuffled so the visited zones scatter over the
  // city.
  std::vector<geo::zone_id> by_rank;
  for (int ix = 0; ix < kFleetSide; ++ix) {
    for (int iy = 0; iy < kFleetSide; ++iy) by_rank.push_back({ix, iy});
  }
  for (std::size_t i = by_rank.size() - 1; i > 0; --i) {
    std::swap(by_rank[i], by_rank[g.below(i + 1)]);
  }
  std::vector<geo::zone_id> home(kFleetClients);
  std::vector<std::uint8_t> carrier(kFleetClients);
  for (std::size_t c = 0; c < kFleetClients; ++c) {
    home[c] = by_rank[zone_pop(g)];
    carrier[c] = static_cast<std::uint8_t>(g.below(2));
  }
  const std::size_t window = std::max(in.count_for(in.r.checkin),
                                      in.count_for(in.r.report));
  in.fleet.resize(kFleetWarm + window);
  for (std::size_t k = 0; k < in.fleet.size(); ++k) {
    const std::size_t c = g.below(kFleetClients);
    trace::measurement_record& r = in.fleet[k];
    r.time_s = static_cast<double>(k) * kFleetDt;
    r.network = in.w.networks[carrier[c]];
    r.pos = in.w.grid.center(home[c]);
    r.speed_mps = 10.0 * g.u01();
    r.device = "phone";
    r.client_id = c + 1;
    fill_probe(r, g);
  }
  for (std::size_t k = 0; k < kFleetWarm; k += kFrameRecs) {
    in.fleet_warm_frames.push_back(proto::v3::encode_report_batch_frame(
        std::span(in.fleet).subspan(k, kFrameRecs)));
  }
  for (std::size_t k = 0; k < in.count_for(in.r.checkin); ++k) {
    const trace::measurement_record& r = in.fleet[kFleetWarm + k];
    proto::checkin_request q;
    q.client_id = r.client_id;
    q.pos = r.pos;
    q.time_s = r.time_s;
    q.network_index = r.network == in.w.networks[0] ? 0 : 1;
    q.active_in_zone = 4;
    q.device = r.device;
    in.checkin_lines.push_back(text_line(proto::encode(q)));
  }
  for (std::size_t k = 0; k < in.count_for(in.r.report); ++k) {
    proto::measurement_report m;
    m.record = in.fleet[kFleetWarm + k];
    m.client_id = m.record.client_id;
    in.report_lines.push_back(text_line(proto::encode(m)));
  }
}

inline void make_probes(inputs& in) {
  rng g(rng::mix(in.seed ^ 0x9e0bull));
  const std::size_t per_stream =
      in.count_for(in.r.probe) / kProbeStreams + 2;
  for (int s = 0; s < kProbeStreams; ++s) {
    trace::measurement_record r;
    r.network = in.w.networks[0];
    r.pos = in.w.grid.center(geo::zone_id{kProbeIx0 + s, 0});
    r.device = "phone";
    r.client_id = 900000 + static_cast<std::uint64_t>(s);
    r.kind = trace::probe_kind::tcp_download;
    r.success = true;
    r.throughput_bps = 1e6 * (1.0 + g.u01());
    r.time_s = 0.5 * kEpochS;
    in.probe_open.push_back(r);
    std::vector<std::string> lines;
    for (std::size_t j = 0; j < per_stream; ++j) {
      proto::measurement_report m;
      m.record = r;
      m.record.time_s = (static_cast<double>(j) + 1.5) * kEpochS;
      m.record.throughput_bps = 1e6 * (1.0 + g.u01());
      m.client_id = r.client_id;
      lines.push_back(text_line(proto::encode(m)));
    }
    in.probe_lines.push_back(std::move(lines));
    proto::query_request q;
    q.pos = r.pos;
    q.network = r.network;
    q.metric = trace::metric::tcp_throughput_bps;
    in.probe_query.push_back(proto::v3::encode_query_frame(q));
  }
}

/// The streams a reader can expect to find: every stream with a frozen
/// epoch once the fleet's warm records are applied (computed on a private
/// synchronous coordinator, so it is a pure function of the seed).
inline void make_reads(inputs& in) {
  {
    core::sharded_coordinator model(in.w.grid, in.w.networks, sync_config(),
                                    in.seed);
    model.report_batch(std::span(in.fleet).first(kFleetWarm));
    for (auto& k : model.keys()) {
      if (!model.history(k).empty()) in.read_set.push_back(k);
    }
  }
  sort_keys(in.read_set);
  if (in.read_set.empty()) throw std::runtime_error("empty read set");
  rng g(rng::mix(in.seed ^ 0x4eadull));
  const zipf pop(in.read_set.size(), 1.0);
  const double now = static_cast<double>(kFleetWarm) * kFleetDt;
  auto pick = [&] {
    proto::query_request q;
    q.time_s = now;
    if (g.below(32) == 0) {  // a stream nobody ever reported
      q.pos = in.w.grid.center(
          geo::zone_id{kMissIx0 + static_cast<int>(g.below(64)), kMissIx0});
      q.network = in.w.networks[g.below(2)];
      q.metric = static_cast<trace::metric>(g.below(6));
      return q;
    }
    const core::estimate_key& k = in.read_set[pop(g)];
    q.pos = in.w.grid.center(k.zone);
    q.network = k.network;
    q.metric = k.metric;
    return q;
  };
  for (std::size_t k = 0; k < in.count_for(in.r.query); ++k) {
    in.queries.push_back(pick());
    in.query_frames.push_back(
        proto::v3::encode_query_frame(in.queries.back()));
    in.query_sampled.push_back(g.below(16) == 0 ? 1 : 0);
  }
  for (std::size_t f = 0; f < kQueryBPool; ++f) {
    std::vector<proto::query_request> items;
    for (std::size_t k = 0; k < kQueryBItems; ++k) items.push_back(pick());
    in.queryb_frames.push_back(text_line(proto::encode_query_batch(items)));
    in.queryb_items.push_back(std::move(items));
  }
}

inline void make_bulk(inputs& in) {
  const std::size_t base =
      proto::v3::encode_report_batch_frame(
          std::span<const trace::measurement_record>{})
          .size();
  in.bulk_ticks.resize(kBulkPool);
  in.bulk_time_off.resize(kBulkPool);
  std::vector<trace::measurement_record> recs(kFrameRecs);
  for (std::size_t f = 0; f < kBulkFrames; ++f) {
    std::size_t off = base;
    for (std::size_t k = 0; k < kFrameRecs; ++k) {
      const std::size_t i = f * kFrameRecs + k;
      recs[k] = bulk_record(in.w, in.seed, i);
      in.bulk_ticks[i] = static_cast<std::uint64_t>(recs[k].time_s / kBulkDt);
      in.bulk_time_off[i] = static_cast<std::uint32_t>(off);
      // put_record: time_s leads a 90-byte fixed prefix, then the network
      // and device strings with u16 length prefixes.
      off += 90 + 2 + recs[k].network.size() + 2 + recs[k].device.size();
    }
    in.bulk_frames.push_back(proto::v3::encode_report_batch_frame(recs));
    if (off != in.bulk_frames.back().size()) {
      throw std::runtime_error("unexpected REPORTB record layout");
    }
  }
  // The patch offsets must address the time fields exactly.
  in.patch(1, 3);
  const auto back = proto::v3::decode_report_batch_frame(in.bulk_frames[1]);
  for (std::size_t k = 0; k < kFrameRecs; ++k) {
    const double want =
        static_cast<double>(in.bulk_ticks[kFrameRecs + k] + 3 * kBulkPool) *
        kBulkDt;
    if (back[k].time_s != want) {
      throw std::runtime_error("REPORTB time patch misses the time field");
    }
  }
  in.patch(1, 0);
}

inline void make_inputs(inputs& in) {
  in.r = in.bulk() ? kSideRates : kFleetRates;
  make_fleet(in);
  make_probes(in);
  make_reads(in);
  if (in.bulk()) make_bulk(in);
}

}  // namespace perfbench
