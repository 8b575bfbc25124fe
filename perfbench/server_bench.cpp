// Serving benchmark for the WiScape coordinator stack.
//
// With --trace 0 one load-generator thread drives net::tcp_server ->
// proto::coordinator_server -> core::sharded_coordinator over loopback TCP
// with one of three workloads, checks the program's outputs after the timed
// window, and prints the end-to-end metrics. With --trace 1 it instead calls
// each layer's public functions directly, records spans around the calls,
// and prints the per-layer metrics. The last line of stdout is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// preceded by one {"detail": ...} line with tails, sample counts,
// diagnostics and the host/config fingerprint.
//
//   perfbench_server --workload fleet_mix|bulk_ingest|durable_ingest
//                    --seed <n> --seconds <s> --trace 0|1 --run-dir <dir>
//
// The exit code is 1 when any correctness check fails, 2 on a usage or
// setup error.
#include <bit>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "core/estimate_view.h"
#include "generator.h"
#include "layers.h"
#include "net/client.h"
#include "report.h"

using namespace perfbench;

namespace {

struct args {
  workload wl = workload::fleet_mix;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string run_dir = ".bench_build/run";
};

args parse(int argc, char** argv) {
  args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      if (v == "fleet_mix") {
        a.wl = workload::fleet_mix;
      } else if (v == "bulk_ingest") {
        a.wl = workload::bulk_ingest;
      } else if (v == "durable_ingest") {
        a.wl = workload::durable_ingest;
      } else {
        throw std::invalid_argument("unknown workload " + v);
      }
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
      if (!(a.seconds > 0)) throw std::invalid_argument("--seconds");
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--run-dir") {
      a.run_dir = v;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  return a;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Keys and histories of two coordinators, bit for bit.
bool same_state(const core::sharded_coordinator& a,
                const core::sharded_coordinator& b, std::string& why) {
  auto ka = a.keys();
  auto kb = b.keys();
  if (ka.size() != kb.size()) {
    why = "key count " + std::to_string(ka.size()) + " vs " +
          std::to_string(kb.size());
    return false;
  }
  sort_keys(ka);
  sort_keys(kb);
  for (std::size_t i = 0; i < ka.size(); ++i) {
    if (!(ka[i] == kb[i])) {
      why = "key " + key_text(ka[i]) + " vs " + key_text(kb[i]);
      return false;
    }
    const auto ha = a.history(ka[i]);
    const auto hb = b.history(kb[i]);
    bool eq = ha.size() == hb.size();
    for (std::size_t j = 0; eq && j < ha.size(); ++j) {
      eq = same_bits(ha[j].epoch_start_s, hb[j].epoch_start_s) &&
           same_bits(ha[j].mean, hb[j].mean) &&
           same_bits(ha[j].stddev, hb[j].stddev) &&
           ha[j].samples == hb[j].samples;
    }
    if (!eq) {
      why = "history of " + key_text(ka[i]);
      return false;
    }
  }
  return true;
}

/// Each kept QUERY/QUERYB answer must be bit-equal to what the quiesced
/// coordinator serves for that stream: its current estimate when the epoch
/// index still matches, else the frozen epoch the answer named.
std::size_t bad_samples(const core::sharded_coordinator& coord,
                        const std::vector<query_sample>& samples,
                        const geo::zone_grid& grid) {
  const core::estimate_view view(coord);
  std::size_t bad = 0;
  for (const query_sample& s : samples) {
    const geo::zone_id zone = grid.zone_of(s.q.pos);
    const auto cur = view.lookup(zone, view.network_id_of(s.q.network),
                                 s.q.metric, s.q.time_s);
    if (!s.present) {
      bad += cur.has_value() ? 1 : 0;
      continue;
    }
    if (cur && cur->epoch_index == s.epoch_index) {
      bad += (cur->count == s.count && same_bits(cur->mean, s.mean) &&
              same_bits(cur->stddev, s.stddev))
                 ? 0
                 : 1;
      continue;
    }
    const auto hist =
        coord.history(core::estimate_key{zone, s.q.network, s.q.metric});
    if (s.epoch_index >= hist.size()) {
      ++bad;
      continue;
    }
    const core::epoch_estimate& e = hist[s.epoch_index];
    bad += (e.samples == s.count && same_bits(e.mean, s.mean) &&
            same_bits(e.stddev, s.stddev))
               ? 0
               : 1;
  }
  return bad;
}

constexpr std::size_t kConns = 4;

/// One fresh follower's snapshot catch-up plus tail poll over TCP; returns
/// its time. The follower is then compared bit for bit with the leader and
/// `why` says what differed (left empty when equal).
double catch_up_once(const inputs& in, stack& st, std::string& why) {
  replica fresh(in);
  net::line_client lc;
  lc.connect("127.0.0.1", st.tcp->port());
  lc.hello(3);
  const repl::transport over_tcp = [&](std::string_view f) {
    return std::string(lc.request_frame(f));
  };
  const std::int64_t t = now_ns();
  fresh.fol->catch_up(over_tcp);
  const bool polled = fresh.fol->poll(over_tcp).has_value();
  const double s = static_cast<double>(now_ns() - t) / 1e9;
  if (!polled) {
    why = "tail poll refused";
  } else {
    same_state(*st.coord, *fresh.coord, why);
  }
  return s;
}

/// Median over the kept whole slots of the window of each slot's ACK rate
/// (the records ACKed after its first ACK over the time to its last); the
/// whole-window rate when fewer than two kept slots saw ACKs.
double ingest_rate(const run_result& res, const std::vector<char>& keep) {
  std::vector<double> per_slot;
  for (std::size_t i = 0; i < keep.size() && i < res.acks_by_slot.size();
       ++i) {
    const run_result::ack_slot& a = res.acks_by_slot[i];
    if (keep[i] && a.last_ns > a.first_ns) {
      per_slot.push_back(static_cast<double>(a.records - a.first_records) /
                         (static_cast<double>(a.last_ns - a.first_ns) / 1e9));
    }
  }
  if (per_slot.size() < 2) {
    return static_cast<double>(res.window_acked) / res.window_s;
  }
  return median_of(per_slot);
}

int run_end_to_end(inputs& in, const std::string& run_dir) {
  const std::string dir = wal_dir(run_dir, in);
  checks ck;
  std::optional<replica> prebuilt;
  std::uint64_t wal_seq = 0;
  if (in.wl == workload::durable_ingest) {
    rewind_bulk(in);
    prebuilt.emplace(prebuild_durable(in, dir, wal_seq));
  }

  // ---- set-up, several times; the last one serves the run -----------------
  std::vector<double> setups;
  std::vector<double> setup_steal;
  std::unique_ptr<stack> st;
  std::string recovered;  // every set-up's recover() answer, when wrong
  for (int i = 0; i < kSetupReps; ++i) {
    st.reset();
    rewind_bulk(in);
    const steal_meter steal;
    const std::int64_t t = now_ns();
    st = setup(in, dir, kConns);
    setups.push_back(static_cast<double>(now_ns() - t) / 1e9);
    setup_steal.push_back(steal.share());
    if (st->recovered_seq != wal_seq) {
      recovered += std::to_string(st->recovered_seq) + " vs " +
                   std::to_string(wal_seq) + " ";
    }
  }
  if (in.wl == workload::durable_ingest) {
    ck.add("wal_recover_seq", recovered.empty(), recovered);
  }
  replica rep = prebuilt ? std::move(*prebuilt) : replica(in);
  pin_threads();

  // ---- timed window --------------------------------------------------------
  generator gen(in, *st, rep);
  run_result res = gen.run(in.seconds);

  // ---- checks, outside the timed window -------------------------------------
  st->coord->flush();
  const repl::transport inproc = [&](std::string_view f) {
    return handle_bytes(*st->server, f);
  };
  const auto tail = rep.fol->poll(inproc);
  ck.add("follower_cursor",
         tail && rep.fol->applied_seq() == st->lead->log().last_seq());

  std::string why;
  const double catchup_s = catch_up_once(in, *st, why);
  ck.add("catchup_bit_equal", why.empty(), why);
  const std::uint64_t ingested = st->coord->reports_ingested();
  ck.add("reports_ingested_eq_acked",
         ingested == st->warm_records + res.acked_records,
         std::to_string(ingested) + " vs " +
             std::to_string(st->warm_records + res.acked_records));
  const std::size_t bad = bad_samples(*st->coord, res.samples, in.w.grid);
  ck.add("query_replies_bit_equal", bad == 0 && !res.samples.empty(),
         std::to_string(bad) + " of " + std::to_string(res.samples.size()));
  ck.add("no_protocol_errors", res.protocol_errors == 0,
         std::to_string(res.protocol_errors));

  // ---- report --------------------------------------------------------------
  metric_set m;
  metric_set diag;
  // Every windowed metric keeps to the slots in which the hypervisor took
  // the least CPU time, setup_s to the half of the set-ups (common.h).
  const std::vector<char> keep =
      least_stolen(res.slot_steal, kept_slots(in.seconds));
  {
    const std::vector<char> kept =
        least_stolen(setup_steal, share_of(setups.size(), kKeepSetups));
    std::vector<double> v;
    for (std::size_t i = 0; i < setups.size(); ++i) {
      if (kept[i]) v.push_back(setups[i]);
    }
    m.add("setup_s", median_of(v), "s");
  }
  add_latency(m, diag, "checkin_p50_us", "checkin_p99_us", res.checkin_us,
              keep, "us");
  add_latency(m, diag, "report_p50_us", "report_p99_us", res.report_us, keep,
              "us");
  add_latency(m, diag, "query_p50_us", "query_p99_us", res.query_us, keep,
              "us");
  m.add("ingest_rec_per_s", ingest_rate(res, keep), "rec/s");
  add_latency(m, diag, "repl_lag_p50_ms", "repl_lag_p99_ms", res.lag_ms, keep,
              "ms");
  // Measured, but too unsteady between runs on the reference host to gate
  // (perfbench/METRICS.md): reported with the diagnostics.
  add_latency(diag, diag, "queryb_p50_us", "queryb_p99_us", res.queryb_us,
              keep, "us");
  add_latency(diag, diag, "fresh_p50_ms", "fresh_p99_ms", res.fresh_ms, keep,
              "ms");
  add_latency(diag, diag, "repl_lag_ack_p50_ms", "repl_lag_ack_p99_ms",
              res.lag_ack_ms, keep, "ms");
  add_latency(diag, diag, "repl_lag_cadence_p50_ms", "repl_lag_cadence_p99_ms",
              res.lag_cadence_ms, keep, "ms");
  diag.add("catchup_s", catchup_s, "s");

  diag.add("error_ratio",
           static_cast<double>(res.failed) /
               static_cast<double>(std::max<std::uint64_t>(1, res.attempted)),
           "ratio");
  {
    std::vector<double> late = res.late_us;
    const double pct = tail_pct(late.size());
    diag.add("gen.late_p99_us", pct > 0 ? percentile(late, pct) : 0.0, "us",
             ", \"samples\": " + std::to_string(late.size()) +
                 ", \"percentile\": " + num(pct));
  }
  diag.add("setup_s_min", *std::min_element(setups.begin(), setups.end()),
           "s");
  diag.add("setup_s_all", median_of(setups), "s");
  diag.add("overload", static_cast<double>(res.overload), "count");
  diag.add("unanswered", static_cast<double>(res.unanswered), "count");
  diag.add("probes_skipped", static_cast<double>(res.probes_skipped), "count");
  diag.add("lag_unresolved", static_cast<double>(res.lag_unresolved),
           "count");
  diag.add("window_s", res.window_s, "s");
  diag.add("ingest_rec_per_s_whole_run",
           static_cast<double>(res.window_acked) / res.window_s, "rec/s");
  diag.add("lag_apply_p50_ms", res.lag_apply_ms.slot_median(keep), "ms");
  diag.add("repl_pulls", static_cast<double>(res.pulls), "count");
  diag.add("host.steal_share", res.steal_share, "ratio");
  {
    double kept_steal = 0.0;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < keep.size(); ++i) {
      if (keep[i]) {
        kept_steal += res.slot_steal[i];
        ++kept;
      }
    }
    diag.add("host.steal_share_kept_slots",
             kept ? kept_steal / static_cast<double>(kept) : -1.0, "ratio");
    diag.add("slots_kept", static_cast<double>(kept), "count");
    diag.add("slots", static_cast<double>(keep.size()), "count");
  }
  diag.add("uploader_pauses", static_cast<double>(res.uploader_pauses),
           "count");
  diag.add("repl_pulled_records", static_cast<double>(res.pulled_records),
           "count");
  diag.add("acked_records", static_cast<double>(res.acked_records), "count");

  std::printf("{\"detail\": {\"workload\": %s, \"trace\": 0, "
              "\"fingerprint\": %s, \"diagnostics\": %s, \"checks\": %s}}\n",
              json_str(name_of(in.wl)).c_str(),
              fingerprint(in.wl, in.seed, run_dir, res.conns, in.r).c_str(),
              diag.json().c_str(), ck.json().c_str());
  print_result(ck.ok(), res.attempted, res.failed, m);
  st.reset();
  std::filesystem::remove_all(dir);
  return ck.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  args a;
  inputs in;
  try {
    a = parse(argc, argv);
    in.wl = a.wl;
    in.seed = a.seed;
    in.seconds = a.seconds;
    std::filesystem::create_directories(a.run_dir);
    make_inputs(in);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_server: %s\n", e.what());
    return 2;
  }
  try {
    return a.trace ? run_traced(in, a.run_dir) : run_end_to_end(in, a.run_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_server: run failed: %s\n", e.what());
    return 2;
  }
}
