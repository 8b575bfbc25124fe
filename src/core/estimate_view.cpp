#include "core/estimate_view.h"

#include <algorithm>

#include "obs/names.h"
#include "obs/registry.h"

namespace wiscape::core {

namespace {
// Process-wide serving metrics (all estimate_view instances share them).
struct view_metrics {
  obs::counter& lookups;
  obs::counter& misses;
  obs::counter& alerts_served;
  obs::counter& alerts_dropped;
};

view_metrics& metrics() {
  auto& reg = obs::registry::global();
  static view_metrics m{
      reg.get_counter(obs::names::kEstimateViewLookups),
      reg.get_counter(obs::names::kEstimateViewMisses),
      reg.get_counter(obs::names::kEstimateViewAlertsServed),
      reg.get_counter(obs::names::kEstimateViewAlertsDropped)};
  return m;
}
}  // namespace

std::optional<served_estimate> estimate_view::lookup(const geo::zone_id& zone,
                                                     std::uint16_t network_id,
                                                     trace::metric metric,
                                                     double now_s) const {
  metrics().lookups.inc();
  const std::uint64_t skey = zone_table::pack_stream(zone, network_id, metric);
  const estimate_mirror& mirror =
      coordinator_->published_of(coordinator_->shard_of(zone));
  published_estimate p;
  if (!mirror.read(skey, p)) {
    metrics().misses.inc();
    return std::nullopt;
  }
  served_estimate out;
  out.count = p.count;
  out.mean = p.mean;
  out.stddev = p.stddev;
  out.epoch_index = p.epoch_index;
  out.epoch_start_s = p.epoch_start_s;
  if (now_s >= 0.0) {
    out.staleness_s = std::max(0.0, now_s - p.epoch_start_s);
  }
  const double target = cfg_.target_samples > 0.0 ? cfg_.target_samples : 1.0;
  out.confidence = std::min(1.0, static_cast<double>(p.count) / target);
  return out;
}

std::optional<served_estimate> estimate_view::lookup(const geo::zone_id& zone,
                                                     std::string_view network,
                                                     trace::metric metric,
                                                     double now_s) const {
  const std::uint16_t nid = network_id_of(network);
  if (nid == network_interner::npos) {
    metrics().lookups.inc();
    metrics().misses.inc();
    return std::nullopt;
  }
  return lookup(zone, nid, metric, now_s);
}

alert_drain estimate_view::alerts_since(std::uint64_t since,
                                        std::size_t max) const {
  alert_drain out = coordinator_->alert_sink().drain_since(since, max);
  if (!out.alerts.empty()) metrics().alerts_served.inc(out.alerts.size());
  if (out.dropped != 0) metrics().alerts_dropped.inc(out.dropped);
  return out;
}

}  // namespace wiscape::core
