// Shared pieces of the serving benchmark: clocks, the seeded generators,
// quantiles, the deployment shape and the workload inputs.
//
// Every request byte a run sends is derived here from the workload seed and
// encoded before the timed window opens; the program under test sees only
// those bytes. Record timestamps advance with the record index, so a seed
// replays the same input on every run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "geo/projection.h"
#include "geo/zone_grid.h"
#include "proto/messages.h"
#include "proto/wire_v3.h"
#include "trace/record.h"

namespace perfbench {

using namespace wiscape;

// ---- deployment shape (docs/RUNBOOK.md): generator + loops + drain
// workers fit in 4 cores ------------------------------------------------------
inline constexpr std::size_t kEventLoops = 1;
inline constexpr std::size_t kShards = 2;
inline constexpr std::size_t kQueueCapacity = 4096;
inline constexpr std::size_t kDrainBatch = 64;
inline constexpr std::size_t kGenThreads = 1;
inline constexpr double kEpochS = 1800.0;  // coordinator default epoch
inline constexpr int kSetupReps = 11;      // setups per run; setup_s = median

// ---- fleet (text v2 CHECKIN/REPORT from a Zipf-skewed city) ----------------
// The zone skew is the one the repository's transit-bus client model gives
// on this grid (perfbench_derive_mix, medians over 9 route layouts): 186
// zones visited, per-zone check-ins Zipf with exponent 0.68.
inline constexpr int kFleetSide = 32;  // an 8 km x 8 km grid of 250 m zones
inline constexpr std::size_t kFleetZones = 186;
inline constexpr double kFleetZipf = 0.68;
inline constexpr std::uint64_t kFleetClients = 20000;
inline constexpr double kFleetDt = 0.25;  // record seconds per record index
inline constexpr std::size_t kFleetWarm = 32768;  // records loaded in setup

// ---- bulk (binary v3 REPORTB over a zone set larger than L2) ---------------
inline constexpr int kBulkSide = 128;  // 128 x 128 = 16384 zones
inline constexpr int kBulkIx0 = 1000;
// 2^-13 s per record: 112 samples per stream-epoch on average (the paper's
// 40-120), and every timestamp is exact in binary so cycle offsets add
// without rounding.
inline constexpr double kBulkDt = 1.0 / 8192.0;
inline constexpr std::uint64_t kEpochTicks = 1800 * 8192;
inline constexpr std::size_t kFrameRecs = 64;
inline constexpr std::size_t kBulkFrames = 4096;
inline constexpr std::size_t kBulkPool = kBulkFrames * kFrameRecs;
inline constexpr std::size_t kInFlight = 16;  // frames per bulk connection
inline constexpr std::size_t kBulkConns = 2;
// ACK means enqueued, not applied, so a closed loop alone would fill the
// shard queues whenever the drain is the bottleneck and trip the server's
// shedding (0.75 saturation). Uploaders hold their next frame while the
// pipeline's backlog -- records accepted but not yet applied, read from the
// coordinator's lock-free counters -- is at or above this many records. The
// counters give the backlog of all shards together, so the level is 0.4 of
// one queue's capacity: a shard whose drain stalls then holds at most that
// plus its share of the frames in flight, below the shedding level.
inline constexpr std::uint64_t kUploaderHoldRecords = kQueueCapacity * 2 / 5;
// While frames are held, the backlog is looked at no more often than this.
inline constexpr std::int64_t kHoldCheckNs = 50'000;

// ---- reads and probes ----------------------------------------------------
inline constexpr std::size_t kQueryBItems = 1024;
inline constexpr std::size_t kQueryBPool = 32;
inline constexpr int kProbeStreams = 16;
inline constexpr int kProbeIx0 = 5000;
inline constexpr int kMissIx0 = 9000;
inline constexpr std::int64_t kPullPeriodNs = 10'000'000;  // follower cadence

/// Fixed offered rates of the open-loop streams (requests per second). The
/// CHECKIN rate is sized to the reference host; the others follow from it
/// by the repository's client model (perfbench/METRICS.md): a device
/// reports once per check-in, since the planner tasked 99.99% of check-ins
/// (perfbench_derive_mix), and reads its zone's estimate once per four
/// check-ins, as the scenario engine's QoE clients do. The dashboard's
/// QUERYB and the freshness probes are instruments, sized to the host.
struct rates {
  double checkin;
  double report;
  double query;
  double queryb;
  double probe;
};
/// fleet_mix: the city fleet plus application readers and a dashboard.
inline constexpr rates kFleetRates{3000, 3000, 750, 20, 100};
/// bulk_ingest / durable_ingest: the same mix at a trickle beside the bulk
/// uploaders, so every end-to-end metric is measured on every workload.
inline constexpr rates kSideRates{200, 200, 50, 20, 50};

enum class workload { fleet_mix, bulk_ingest, durable_ingest };

inline const char* name_of(workload w) {
  switch (w) {
    case workload::fleet_mix: return "fleet_mix";
    case workload::bulk_ingest: return "bulk_ingest";
    case workload::durable_ingest: return "durable_ingest";
  }
  return "?";
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: the benchmark's own generator, so inputs do not depend on
/// the standard library's distribution implementations.
struct rng {
  std::uint64_t s;
  explicit rng(std::uint64_t seed) : s(seed) {}
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }
  std::uint64_t next() { return mix(s += 0x9e3779b97f4a7c15ull); }
  double u01() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/// Zipf(s) sampler over ranks 0..n-1 by inverse CDF.
class zipf {
 public:
  zipf(std::size_t n, double s) : cdf_(n) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  std::size_t operator()(rng& g) const {
    const double u = g.u01();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// The p-th percentile (0..100) of `v` by nearest rank; v is reordered.
inline double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  const std::size_t k = std::min<std::size_t>(
      v.size() - 1,
      static_cast<std::size_t>(std::ceil(p / 100.0 * v.size())) -
          (p > 0 ? 1 : 0));
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return v[k];
}

/// The highest of a few tail percentiles that still has at least ten
/// samples beyond it (0 when even the median has not).
inline double tail_pct(std::size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 80.0, 50.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 0.0;
}

inline double median_of(std::vector<double> v) { return percentile(v, 50); }

/// The timed window is cut into slots of this length for the gated
/// statistics. The hypervisor takes CPU time from this machine in bursts of
/// one to tens of seconds, and a run slowed by a burst reads several times
/// slower than the program is; slots short enough to fall between bursts
/// let the statistics keep to the time the machine had its CPUs.
inline constexpr std::int64_t kSlotNs = 250'000'000;

inline std::size_t slot_of(std::int64_t since_start_ns) {
  return static_cast<std::size_t>(std::max<std::int64_t>(0, since_start_ns) /
                                  kSlotNs);
}

/// Marks the `n` intervals in which the hypervisor took the least CPU
/// time, given the steal share of each; ties go to the earlier interval.
/// The choice looks only at the host, never at what the program did in the
/// interval, so it cannot pick the program's good moments.
inline std::vector<char> least_stolen(const std::vector<double>& steal,
                                      std::size_t n) {
  std::vector<std::size_t> idx(steal.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return steal[a] < steal[b];
  });
  std::vector<char> keep(steal.size(), 0);
  for (std::size_t i = 0; i < n && i < idx.size(); ++i) keep[idx[i]] = 1;
  return keep;
}

inline std::size_t share_of(std::size_t n, double share) {
  return static_cast<std::size_t>(std::ceil(share * static_cast<double>(n)));
}

/// The windowed metrics keep a quarter as many slots as a window of
/// --seconds holds, and setup_s half of a run's set-ups.
inline constexpr double kKeepSlots = 0.25;
inline constexpr double kKeepSetups = 0.5;
/// A slot is calm when the hypervisor took at most this share of the CPU
/// time in it. While fewer calm slots than the kept count have been seen,
/// the window runs on past --seconds, up to this multiple of it.
inline constexpr double kCalmSteal = 0.02;
inline constexpr double kMaxStretch = 1.5;

/// How many slots the windowed metrics keep for a window of `seconds`.
inline std::size_t kept_slots(double seconds) {
  return std::max<std::size_t>(
      1, share_of(slot_of(static_cast<std::int64_t>(seconds * 1e9)),
                  kKeepSlots));
}

/// Samples tagged with the slot of the timed window they fall in.
struct series {
  std::vector<double> v;
  std::vector<std::uint32_t> slot;

  void add(double x, std::int64_t since_start_ns) {
    v.push_back(x);
    slot.push_back(static_cast<std::uint32_t>(slot_of(since_start_ns)));
  }
  std::size_t size() const { return v.size(); }

  /// Median over the kept slots holding at least `min_n` samples of each
  /// such slot's median; over every slot when no kept slot has that many,
  /// and the plain median when no slot has.
  double slot_median(const std::vector<char>& keep,
                     std::size_t min_n = 5) const {
    std::vector<std::vector<double>> by_slot;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (slot[i] >= by_slot.size()) by_slot.resize(slot[i] + 1);
      by_slot[slot[i]].push_back(v[i]);
    }
    std::vector<double> kept;
    std::vector<double> all;
    for (std::size_t k = 0; k < by_slot.size(); ++k) {
      if (by_slot[k].size() < min_n) continue;
      const double m = percentile(by_slot[k], 50);
      all.push_back(m);
      if (k < keep.size() && keep[k]) kept.push_back(m);
    }
    if (!kept.empty()) return median_of(kept);
    return all.empty() ? median_of(v) : median_of(all);
  }
};

// ---- the city -------------------------------------------------------------

struct world {
  geo::projection proj{geo::lat_lon{43.0731, -89.4012}};
  geo::zone_grid grid{proj, 250.0};
  std::vector<std::string> networks{"NetB", "NetC"};
};

/// Fills the kind and the metric payload a probe of that kind carries.
inline void fill_probe(trace::measurement_record& r, rng& g) {
  r.kind = static_cast<trace::probe_kind>(g.below(4));
  r.success = true;
  switch (r.kind) {
    case trace::probe_kind::tcp_download:
      r.throughput_bps = 1e6 * (1.0 + g.u01());
      break;
    case trace::probe_kind::udp_burst:
      r.throughput_bps = 8e5 * (1.0 + g.u01());
      r.loss_rate = 0.05 * g.u01();
      r.jitter_s = 0.01 * g.u01();
      break;
    case trace::probe_kind::ping:
      r.rtt_s = 0.05 + 0.1 * g.u01();
      r.ping_sent = 10;
      break;
    case trace::probe_kind::udp_uplink:
      r.throughput_bps = 2e5 * (1.0 + g.u01());
      break;
  }
}

/// Seeded per-zone phase, in record ticks, of the bulk stream's clock.
inline std::uint64_t bulk_phase(std::uint64_t seed, int ix, int iy) {
  return rng::mix(seed * 31 + static_cast<std::uint64_t>(ix) * 65536 +
                  static_cast<std::uint64_t>(iy)) %
         kEpochTicks;
}

/// Bulk record i of the pool at cycle 0. Each zone's clock is shifted by a
/// seeded phase inside one epoch, so rollovers spread evenly over the
/// stream instead of arriving in one burst per epoch boundary.
inline trace::measurement_record bulk_record(const world& w,
                                             std::uint64_t seed,
                                             std::uint64_t i) {
  rng g(rng::mix(seed ^ 0xb01cull) + i);
  g.next();
  const int ix = kBulkIx0 + static_cast<int>(g.below(kBulkSide));
  const int iy = static_cast<int>(g.below(kBulkSide));
  trace::measurement_record r;
  r.network = w.networks[g.below(2)];
  r.pos = w.grid.center(geo::zone_id{ix, iy});
  r.device = "phone";
  r.client_id = 1 + g.below(100000);
  fill_probe(r, g);
  r.time_s = static_cast<double>(i + bulk_phase(seed, ix, iy)) * kBulkDt;
  return r;
}

}  // namespace perfbench
