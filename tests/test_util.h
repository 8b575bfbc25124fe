// Shared fixtures for the WiScape test suite: a small, fast deployment,
// synthetic series generators, and shorthands for serving requests.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "cellnet/deployment.h"
#include "cellnet/presets.h"
#include "core/sharded_coordinator.h"
#include "proto/server.h"
#include "stats/rng.h"
#include "stats/time_series.h"
#include "trace/dataset.h"

namespace wiscape::testing {

/// A 1-shard synchronous sharded_config: the coordinator it configures
/// reproduces a sequential core::coordinator with `cfg` draw for draw.
inline core::sharded_config sequential(core::coordinator_config cfg = {}) {
  core::sharded_config c;
  c.coordinator = cfg;
  c.num_shards = 1;
  c.synchronous = true;
  return c;
}

/// Serves one request -- framing detected from its first byte -- and
/// returns the reply.
inline std::string serve(proto::coordinator_server& server,
                         std::string_view req) {
  proto::reply_buffer rb;
  server.handle(proto::request_view::detect(req), rb);
  return std::string(rb.view());
}

/// A compact two-operator deployment (4 x 4 km) that builds in microseconds
/// and has full coverage in its core.
inline cellnet::deployment tiny_deployment(std::uint64_t seed = 11) {
  geo::projection proj(cellnet::anchors::madison);
  cellnet::extent area{4000.0, 4000.0};
  std::vector<cellnet::operator_config> ops;
  for (const char* name : {"NetB", "NetC"}) {
    cellnet::operator_config o;
    o.name = name;
    o.tech = radio::technology::evdo_rev_a;
    o.seed = stats::rng_stream(seed).fork(name).seed();
    o.tower_spacing_m = 1500.0;
    o.capacity_scale = name[3] == 'B' ? 0.9 : 1.1;
    ops.push_back(o);
  }
  return cellnet::deployment(proj, area, std::move(ops));
}

/// White-noise series: `n` samples at `dt` spacing, N(mean, sigma).
inline stats::time_series noise_series(std::size_t n, double dt, double mean,
                                       double sigma, std::uint64_t seed = 5) {
  stats::rng_stream rng(seed);
  stats::time_series ts;
  for (std::size_t i = 0; i < n; ++i) {
    ts.add(static_cast<double>(i) * dt, rng.normal(mean, sigma));
  }
  return ts;
}

/// Noise plus a slow sinusoidal drift of the given period and amplitude.
inline stats::time_series drift_series(std::size_t n, double dt, double mean,
                                       double noise_sigma, double drift_amp,
                                       double drift_period_s,
                                       std::uint64_t seed = 6) {
  stats::rng_stream rng(seed);
  stats::time_series ts;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * dt;
    ts.add(t, mean + drift_amp * std::sin(2.0 * 3.14159265358979 * t /
                                          drift_period_s) +
                   rng.normal(0.0, noise_sigma));
  }
  return ts;
}

/// A minimal successful record for dataset-level tests.
inline trace::measurement_record make_record(double time_s,
                                             const std::string& net,
                                             geo::lat_lon pos,
                                             trace::probe_kind kind,
                                             double value) {
  trace::measurement_record r;
  r.time_s = time_s;
  r.network = net;
  r.pos = pos;
  r.kind = kind;
  r.success = true;
  switch (kind) {
    case trace::probe_kind::tcp_download:
    case trace::probe_kind::udp_burst:
    case trace::probe_kind::udp_uplink:
      r.throughput_bps = value;
      break;
    case trace::probe_kind::ping:
      r.rtt_s = value;
      r.ping_sent = 5;
      break;
  }
  return r;
}

}  // namespace wiscape::testing
