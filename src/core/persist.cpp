#include "core/persist.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/fault_injection.h"

namespace wiscape::core {

namespace {

geo::zone_id parse_zone(const std::string& s) {
  const auto colon = s.find(':');
  if (colon == std::string::npos) {
    throw std::invalid_argument("bad zone id '" + s + "'");
  }
  try {
    return {std::stoi(s.substr(0, colon)), std::stoi(s.substr(colon + 1))};
  } catch (const std::exception&) {
    throw std::invalid_argument("bad zone id '" + s + "'");
  }
}

void sort_keys(std::vector<estimate_key>& keys) {
  // Deterministic file order: by zone, then network, then metric.
  std::sort(keys.begin(), keys.end(),
            [](const estimate_key& a, const estimate_key& b) {
              if (a.zone != b.zone) return a.zone < b.zone;
              if (a.network != b.network) return a.network < b.network;
              return static_cast<int>(a.metric) < static_cast<int>(b.metric);
            });
}

void write_est(std::ostream& os, const estimate_key& key,
               const epoch_estimate& est) {
  char buf[320];
  // %.17g round-trips IEEE doubles exactly, so load(save(t)) is bit-equal.
  std::snprintf(buf, sizeof(buf), "EST %s %s %s %.17g %.17g %.17g %zu\n",
                geo::to_string(key.zone).c_str(), key.network.c_str(),
                trace::to_string(key.metric).c_str(), est.epoch_start_s,
                est.mean, est.stddev, est.samples);
  os << buf;
}

void write_open(std::ostream& os, const estimate_key& key,
                const open_epoch_state& st) {
  char buf[320];
  std::snprintf(buf, sizeof(buf), "OPEN %s %s %s %.17g %llu %.17g %.17g\n",
                geo::to_string(key.zone).c_str(), key.network.c_str(),
                trace::to_string(key.metric).c_str(), st.open_start_s,
                static_cast<unsigned long long>(st.n), st.mean, st.m2);
  os << buf;
}

/// Parses an EST or OPEN body line. Returns false if the line is neither
/// (the caller decides whether that's fatal).
template <typename RestoreEst, typename RestoreOpen>
bool parse_body_line(const std::string& line, RestoreEst&& restore_est,
                     RestoreOpen&& restore_open) {
  std::istringstream ls(line);
  std::string tag, zone_s, net, metric_s;
  if (!(ls >> tag >> zone_s >> net >> metric_s)) return false;
  if (tag == "EST") {
    epoch_estimate est;
    if (!(ls >> est.epoch_start_s >> est.mean >> est.stddev >> est.samples)) {
      throw std::invalid_argument("malformed zone-table line: '" + line + "'");
    }
    restore_est(
        estimate_key{parse_zone(zone_s), net,
                     trace::metric_from_string(metric_s)},
        est);
    return true;
  }
  if (tag == "OPEN") {
    open_epoch_state st;
    unsigned long long n = 0;
    if (!(ls >> st.open_start_s >> n >> st.mean >> st.m2)) {
      throw std::invalid_argument("malformed open-epoch line: '" + line + "'");
    }
    st.n = n;
    restore_open(
        estimate_key{parse_zone(zone_s), net,
                     trace::metric_from_string(metric_s)},
        st);
    return true;
  }
  return false;
}

}  // namespace

void save_state(std::ostream& os, const durable_state& state) {
  if (fault::fire(fault::site::persist_save) == fault::action::fail) {
    throw std::runtime_error("injected fault: coordinator snapshot refused");
  }
  os << "WISCAPE-COORD v2\n";
  auto keys = state.keys();
  sort_keys(keys);
  for (const auto& key : keys) {
    for (const auto& est : state.history(key)) {
      write_est(os, key, est);
    }
    if (const auto open = state.open_state(key)) {
      write_open(os, key, *open);
    }
  }
  os << "ALERTSEQ " << state.alert_seq() << "\n";
}

void load_state(std::istream& is, durable_state& state) {
  std::string line;
  if (!std::getline(is, line) || line != "WISCAPE-COORD v2") {
    throw std::invalid_argument("not a coordinator-state file (bad header)");
  }
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (parse_body_line(
            line,
            [&](const estimate_key& k, const epoch_estimate& e) {
              state.restore_estimate(k, e);
            },
            [&](const estimate_key& k, const open_epoch_state& s) {
              state.restore_open(k, s);
            })) {
      continue;
    }
    std::istringstream ls(line);
    std::string tag;
    std::uint64_t seq = 0;
    if ((ls >> tag >> seq) && tag == "ALERTSEQ") {
      if (seq > 0) state.resume_alert_seq(seq);
      continue;
    }
    throw std::invalid_argument("malformed coordinator-state line: '" + line +
                                "'");
  }
}

}  // namespace wiscape::core
