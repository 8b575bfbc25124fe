#include "core/coordinator.h"

#include <algorithm>
#include <cmath>

#include "obs/names.h"
#include "obs/registry.h"

namespace wiscape::core {

namespace {
// Process-wide coordinator metrics (aggregated over all instances -- every
// shard of a sharded_coordinator contributes to the same counters).
struct coord_metrics {
  obs::counter& checkins;
  obs::counter& tasks_issued;
  obs::counter& budget_exhausted;
  obs::counter& reports_accepted;
  obs::counter& reports_rejected;
  obs::counter& alerts_raised;
};

coord_metrics& metrics() {
  auto& reg = obs::registry::global();
  static coord_metrics m{reg.get_counter(obs::names::kCoordCheckins),
                         reg.get_counter(obs::names::kCoordTasksIssued),
                         reg.get_counter(obs::names::kCoordBudgetExhausted),
                         reg.get_counter(obs::names::kCoordReportsAccepted),
                         reg.get_counter(obs::names::kCoordReportsRejected),
                         reg.get_counter(obs::names::kCoordAlertsRaised)};
  return m;
}
}  // namespace

coordinator::coordinator(geo::zone_grid grid, std::vector<std::string> networks,
                         coordinator_config cfg, std::uint64_t seed)
    : grid_(std::move(grid)),
      networks_(std::move(networks)),
      cfg_(cfg),
      ring_(cfg.alert_ring_capacity),
      table_(cfg.change_sigma_factor, networks_),
      epochs_(cfg.epochs),
      planner_(cfg.planner),
      rng_(seed) {
  // Every rollover publishes into the serving-layer mirror and sequences
  // its alert (sharded mode re-points the alert sink at a shared ring).
  table_.set_sinks(&mirror_, alert_sink_);
  // networks_[i] -> interned id; the interner collapses duplicate operator
  // names to the first id, so two indices can legitimately share one.
  net_ids_.reserve(networks_.size());
  for (const auto& n : networks_) net_ids_.push_back(table_.interner().try_id(n));
}

coordinator::zone_state& coordinator::state_of(const geo::zone_id& z) {
  auto it = zones_.find(z);
  if (it == zones_.end()) {
    it = zones_
             .emplace(z, zone_state{cfg_.epochs.default_epoch_s,
                                    cfg_.default_samples_per_epoch,
                                    {}})
             .first;
  }
  return it->second;
}

trace::metric coordinator::planning_metric(trace::probe_kind k) noexcept {
  switch (k) {
    case trace::probe_kind::tcp_download:
      return trace::metric::tcp_throughput_bps;
    case trace::probe_kind::udp_burst:
      return trace::metric::udp_throughput_bps;
    case trace::probe_kind::ping:
      return trace::metric::rtt_s;
    case trace::probe_kind::udp_uplink:
      return trace::metric::uplink_throughput_bps;
  }
  return trace::metric::rtt_s;
}

std::optional<measurement_task> coordinator::checkin(
    const geo::lat_lon& pos, double time_s, std::size_t network_index,
    std::size_t active_clients_in_zone, std::uint64_t client_id) {
  metrics().checkins.inc();
  // Validate before touching state, as report() does: a zone outside the
  // table's packed range (absurd or NaN coordinates) could never accept the
  // report a task asks for, and neither kind of bad check-in may allocate
  // zone state or spend a draw from the rng.
  const geo::zone_id z = grid_.zone_of(pos);
  if (network_index >= networks_.size() || !zone_table::zone_in_range(z)) {
    return std::nullopt;
  }
  zone_state& st = state_of(z);

  // How many samples has the open epoch of this zone's planning stream
  // accumulated? (Tracked on the probe kind we would issue next.)
  const auto kind = static_cast<trace::probe_kind>(task_counter_ % 3);
  const std::size_t have = table_.open_epoch_samples(
      z, net_ids_[network_index], planning_metric(kind));
  if (have >= st.samples_target) return std::nullopt;

  // Per-client budget guard: a device that already spent its day's
  // allowance is left alone (Sec 3.4's overhead knob).
  double task_mb = 0.0;
  switch (kind) {
    case trace::probe_kind::tcp_download:
      task_mb = cfg_.tcp_task_mb;
      break;
    case trace::probe_kind::udp_burst:
      task_mb = cfg_.udp_task_mb;
      break;
    case trace::probe_kind::ping:
      task_mb = cfg_.ping_task_mb;
      break;
    case trace::probe_kind::udp_uplink:
      task_mb = cfg_.udp_task_mb;
      break;
  }
  budget_state* budget = nullptr;
  if (client_id != 0 && cfg_.client_daily_budget_mb > 0.0) {
    budget = &budgets_[client_id];
    const auto day = static_cast<std::int64_t>(std::floor(time_s / 86400.0));
    if (budget->day != day) {
      budget->day = day;
      budget->spent_mb = 0.0;
    }
    if (budget->spent_mb + task_mb > cfg_.client_daily_budget_mb) {
      metrics().budget_exhausted.inc();
      return std::nullopt;
    }
  }

  const std::size_t remaining = st.samples_target - have;
  // Expected samples this epoch ~= p * active clients * checkins left; the
  // paper's minimal form: select each active client with probability
  // remaining/active (clamped).
  const double p = std::min(
      1.0, static_cast<double>(remaining) /
               static_cast<double>(std::max<std::size_t>(1, active_clients_in_zone)));
  if (!rng_.chance(p)) return std::nullopt;

  ++task_counter_;
  if (budget != nullptr) budget->spent_mb += task_mb;
  metrics().tasks_issued.inc();
  return measurement_task{kind, network_index};
}

double coordinator::client_spend_mb(std::uint64_t client_id,
                                    double time_s) const {
  const auto it = budgets_.find(client_id);
  if (it == budgets_.end()) return 0.0;
  const auto day = static_cast<std::int64_t>(std::floor(time_s / 86400.0));
  return it->second.day == day ? it->second.spent_mb : 0.0;
}

std::uint16_t coordinator::resolve_network(
    const trace::measurement_record& rec) {
  // Trust the wire-cached id only after checking it maps back to the same
  // name here: records can cross process boundaries carrying ids assigned
  // by a different (or stale) interner.
  const auto& in = table_.interner();
  if (rec.network_id != trace::no_network_id && rec.network_id < in.size() &&
      in.name_of(rec.network_id) == rec.network) {
    return rec.network_id;
  }
  // try_intern, not id_of: network names are untrusted wire strings, so a
  // flood of distinct names must saturate to rejection (npos), not throw
  // through the apply path (and terminate an async drain worker).
  return table_.interner().try_intern(rec.network);
}

void coordinator::report(const trace::measurement_record& rec) {
  if (!rec.success) {
    metrics().reports_rejected.inc();
    return;
  }
  // Wire-reachable validity checks, before any state mutation: a zone
  // outside the store's packed cell range (absurd coordinates) or an
  // exhausted network interner rejects the record instead of throwing --
  // add_sample's throws must stay unreachable from attacker-controlled
  // input because drain workers apply records off-thread.
  const geo::zone_id z = grid_.zone_of(rec.pos);
  if (!zone_table::zone_in_range(z)) {
    metrics().reports_rejected.inc();
    return;
  }
  // A NaN/inf timestamp would poison a stream's epoch boundary (and, before
  // cross_epochs grew its saturation guard, spin its rollover walk forever).
  if (!std::isfinite(rec.time_s)) {
    metrics().reports_rejected.inc();
    return;
  }
  const std::uint16_t nid = resolve_network(rec);
  if (nid == network_interner::npos) {
    metrics().reports_rejected.inc();
    return;
  }
  zone_state& st = state_of(z);
  metrics().reports_accepted.inc();
  const std::size_t alerts_before = table_.alerts().size();

  // Fold every metric the record carries into the table. One id resolution
  // per record; the per-metric applies then hash a single integer each.
  for (const trace::metric m : trace::metrics_of(rec.kind)) {
    table_.add_sample(z, nid, m, rec.time_s, trace::value_of(rec, m),
                      st.epoch_s);
  }

  // Epoch-estimation history tracks the planning metric of the record kind.
  if (nid >= st.history.size()) st.history.resize(nid + 1);
  auto& series = st.history[nid];
  series.add(rec.time_s, trace::value_of(rec, planning_metric(rec.kind)));
  if (series.size() > cfg_.history_cap) {
    // Drop the oldest half to bound memory while keeping a long window.
    series.drop_oldest(series.size() / 2);
  }

  const std::size_t alerts_after = table_.alerts().size();
  if (alerts_after > alerts_before) {
    metrics().alerts_raised.inc(alerts_after - alerts_before);
  }
}

void coordinator::recompute_epochs() {
  for (auto& [zone, st] : zones_) {
    // Use the longest per-network history in this zone. Ties go to the
    // lowest network id (the vector replaces the seed's unordered_map, whose
    // tie order was unspecified; strictly-longest winners are unchanged).
    const stats::time_series* best = nullptr;
    for (const auto& series : st.history) {
      if (!best || series.size() > best->size()) best = &series;
    }
    if (!best || best->size() < 32) continue;
    st.epoch_s = epochs_.epoch_for(*best);
  }
}

std::size_t coordinator::refine_sample_target(const geo::zone_id& zone,
                                              std::string_view network,
                                              trace::metric metric) {
  auto it = zones_.find(zone);
  if (it == zones_.end()) return cfg_.default_samples_per_epoch;
  zone_state& st = it->second;
  // Allocation-free lookup: networks with no history were never interned
  // (or never reported into this zone).
  const std::uint16_t nid = table_.interner().try_id(network);
  (void)metric;  // histories are keyed per network on the planning metric
  if (nid == network_interner::npos || nid >= st.history.size() ||
      st.history[nid].size() < cfg_.planner.step * 4) {
    return st.samples_target;
  }
  const auto values = st.history[nid].values();
  st.samples_target = planner_.samples_needed(values, rng_);
  return st.samples_target;
}

zone_status coordinator::status_of(const geo::zone_id& zone) const {
  zone_status out;
  const auto it = zones_.find(zone);
  if (it == zones_.end()) {
    out.epoch_duration_s = cfg_.epochs.default_epoch_s;
    out.samples_target = cfg_.default_samples_per_epoch;
    return out;
  }
  out.epoch_duration_s = it->second.epoch_s;
  out.samples_target = it->second.samples_target;
  // Report the fullest open stream across networks/metrics for this zone.
  for (const std::uint16_t nid : net_ids_) {
    for (const trace::metric m :
         {trace::metric::tcp_throughput_bps, trace::metric::udp_throughput_bps,
          trace::metric::rtt_s}) {
      out.open_epoch_samples = std::max(
          out.open_epoch_samples, table_.open_epoch_samples(zone, nid, m));
    }
  }
  return out;
}

}  // namespace wiscape::core
