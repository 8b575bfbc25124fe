// Derives fleet_mix's traffic ratios and zone skew from the repository's own
// client model, so the benchmark's offered mix is not a guess.
//
//   perfbench_derive_mix [seeds]
//
// It runs the paper's Sec 3.4 client loop the way
// examples/remote_coordinator.cpp does, at city scale: transit buses
// (mobility::fleet, transit_bus_params) drive 12 city routes (the Standalone
// campaign's count, probe/collect.h) over the benchmark's 8 km x 8 km grid
// of 250 m zones, one device per operator on each bus, from 06:00 to 24:00.
// Every device checks in once a minute through sharded_coordinator::checkin
// -- the benchmark's planner, with the devices in the zone that minute as
// its active clients -- and reports only when tasked, as core::client_agent
// does. The seed draws the route layout and the fleet. For each of seeds
// 1..N (default 9) it prints one JSON line: check-ins, tasks, REPORT per
// CHECKIN, the zones visited and the Zipf exponent fitted to the per-zone
// check-in counts; a last line gives the medians over the seeds.
// perfbench/METRICS.md records the output the constants in common.h come
// from. The benchmark never runs this program.
#include <cstdio>
#include <cstdlib>
#include <map>

#include "common.h"
#include "core/sharded_coordinator.h"
#include "mobility/fleet.h"
#include "mobility/route_gen.h"

using namespace perfbench;

namespace {

struct derived {
  double report_per_checkin;
  double zones_visited;
  double zipf_s;
};

derived derive(std::uint64_t seed) {
  constexpr std::size_t kBuses = 200;
  constexpr std::size_t kRoutes = 12;
  constexpr double kSideM = kFleetSide * 250.0;
  const world w;
  stats::rng_stream root(seed);
  mobility::fleet buses(
      mobility::make_city_routes(w.proj, kSideM, kSideM, kRoutes,
                                 root.fork("routes")),
      kBuses, mobility::transit_bus_params(), root.fork("fleet"));
  core::sharded_config sc;
  sc.num_shards = 1;
  sc.synchronous = true;
  core::sharded_coordinator coord(w.grid, w.networks, sc, seed);

  std::map<geo::zone_id, std::uint64_t> per_zone;
  std::uint64_t checkins = 0, tasks = 0;
  rng g(seed);
  std::vector<mobility::gps_fix> fixes;
  std::vector<std::size_t> bus_of;
  for (double t = 6.0 * 3600; t < 24.0 * 3600; t += 60.0) {
    fixes.clear();
    bus_of.clear();
    std::map<geo::zone_id, std::size_t> here;
    for (std::size_t b = 0; b < buses.size(); ++b) {
      if (auto fix = buses.fix_at(b, t)) {
        fixes.push_back(*fix);
        bus_of.push_back(b);
        here[w.grid.zone_of(fix->pos)] += w.networks.size();
      }
    }
    for (std::size_t i = 0; i < fixes.size(); ++i) {
      const geo::zone_id z = w.grid.zone_of(fixes[i].pos);
      for (std::size_t net = 0; net < w.networks.size(); ++net) {
        const std::uint64_t client = 1 + bus_of[i] * w.networks.size() + net;
        ++checkins;
        ++per_zone[z];
        const auto task =
            coord.checkin(fixes[i].pos, t, net, here[z], client);
        if (!task) continue;
        ++tasks;
        trace::measurement_record r;
        r.network = w.networks[net];
        r.pos = fixes[i].pos;
        r.device = "phone";
        r.client_id = client;
        fill_probe(r, g);
        r.kind = task->kind;
        r.time_s = t;
        coord.report(r);
      }
    }
  }

  // Zipf exponent: least-squares slope of log(count) on log(rank) over the
  // visited zones.
  std::vector<double> counts;
  for (const auto& [z, n] : per_zone) counts.push_back(static_cast<double>(n));
  std::sort(counts.rbegin(), counts.rend());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double n = static_cast<double>(counts.size());
  for (std::size_t r = 0; r < counts.size(); ++r) {
    const double x = std::log(static_cast<double>(r + 1));
    const double y = std::log(counts[r]);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  const derived d{static_cast<double>(tasks) / static_cast<double>(checkins),
                  n, -slope};
  std::printf(
      "{\"seed\": %llu, \"devices\": %zu, \"checkins\": %llu, \"tasks\": "
      "%llu, \"report_per_checkin\": %.4f, \"zones_visited\": %zu, "
      "\"zone_zipf_s\": %.3f}\n",
      static_cast<unsigned long long>(seed), kBuses * w.networks.size(),
      static_cast<unsigned long long>(checkins),
      static_cast<unsigned long long>(tasks), d.report_per_checkin,
      counts.size(), d.zipf_s);
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seeds =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 9;
  std::vector<double> ratio, zones, zipf_s;
  for (std::uint64_t s = 1; s <= seeds; ++s) {
    const derived d = derive(s);
    ratio.push_back(d.report_per_checkin);
    zones.push_back(d.zones_visited);
    zipf_s.push_back(d.zipf_s);
  }
  std::printf(
      "{\"median\": {\"report_per_checkin\": %.4f, \"zones_visited\": %.0f, "
      "\"zone_zipf_s\": %.3f}}\n",
      median_of(ratio), median_of(zones), median_of(zipf_s));
  return 0;
}
