// The traced run (--trace 1): per-layer metrics.
//
// A short untraced pass of the workload over TCP gives the transport's
// counters and the generator's lateness. Every other layer is then timed by
// calling its public functions directly, on the workload's own inputs, with
// a span (name, start, end, parent, request id) recorded around each call.
// Spans stay in memory and are written to <run-dir>/spans-<workload>.csv
// when the run ends. Spans live only in the benchmark's files; the program
// is not instrumented.
#pragma once

#include <filesystem>
#include <fstream>

#include "core/durable_log.h"
#include "core/estimate_view.h"
#include "generator.h"
#include "net/client.h"
#include "obs/names.h"
#include "obs/registry.h"
#include "report.h"

namespace perfbench {

class tracer {
 public:
  std::int32_t open(const char* name, std::int32_t parent = -1,
                    std::uint64_t req = 0) {
    spans_.push_back({name, now_ns(), 0, parent, req});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t id) { spans_[id].end = now_ns(); }

  std::vector<double> durations(std::string_view name) const {
    std::vector<double> d;
    for (const auto& s : spans_) {
      if (name == s.name) d.push_back(static_cast<double>(s.end - s.start));
    }
    return d;
  }
  double total_ns(std::string_view name) const {
    double t = 0;
    for (double d : durations(name)) t += d;
    return t;
  }
  double mean_ns(std::string_view name) const {
    const auto d = durations(name);
    return d.empty() ? 0.0 : total_ns(name) / static_cast<double>(d.size());
  }
  double median_ns(std::string_view name) const {
    return median_of(durations(name));
  }
  /// Summed self time of spans named `name`: each span's duration minus the
  /// part its child spans cover.
  double self_ns(std::string_view name) const {
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (const auto& s : spans_) {
      if (s.parent >= 0) child[s.parent] += s.end - s.start;
    }
    double t = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (name == spans_[i].name) {
        t += static_cast<double>(spans_[i].end - spans_[i].start - child[i]);
      }
    }
    return t;
  }
  void write(const std::string& path) const {
    std::ofstream os(path, std::ios::trunc);
    os << "name,start_ns,end_ns,parent,request\n";
    for (const auto& s : spans_) {
      os << s.name << ',' << s.start << ',' << s.end << ',' << s.parent << ','
         << s.req << '\n';
    }
  }
  std::size_t size() const { return spans_.size(); }

 private:
  struct span {
    const char* name;
    std::int64_t start;
    std::int64_t end;
    std::int32_t parent;
    std::uint64_t req;
  };
  std::vector<span> spans_;
};

/// Records one span for the lifetime of the scope.
class scoped_span {
 public:
  scoped_span(tracer& t, const char* name, std::int32_t parent = -1,
              std::uint64_t req = 0)
      : t_(t), id_(t.open(name, parent, req)) {}
  ~scoped_span() { t_.close(id_); }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;
  std::int32_t id() const { return id_; }

 private:
  tracer& t_;
  std::int32_t id_;
};

/// Counts (and keeps the first few of) the epochs a coordinator freezes.
class counting_tap : public core::epoch_tap {
 public:
  void on_epoch(const core::estimate_key& key,
                const core::epoch_estimate& est) override {
    ++count;
    if (kept.size() < 20000) kept.emplace_back(key, est);
  }
  std::uint64_t count = 0;
  std::vector<std::pair<core::estimate_key, core::epoch_estimate>> kept;
};

inline double counter_value(const char* name) {
  return static_cast<double>(
      obs::registry::global().get_counter(name).value());
}

/// The workload's records in REPORTB-sized batches: the bulk pool at a given
/// cycle, or the fleet's records after the warm part.
inline std::vector<std::vector<trace::measurement_record>> record_batches(
    inputs& in, std::uint64_t cycle, std::size_t max_batches) {
  std::vector<std::vector<trace::measurement_record>> out;
  if (in.bulk()) {
    for (std::size_t f = 0; f < in.bulk_frames.size() && f < max_batches;
         ++f) {
      in.patch(f, cycle);
      out.emplace_back();
      proto::v3::decode_report_batch_frame_into(in.bulk_frames[f],
                                                out.back());
    }
    return out;
  }
  for (std::size_t k = kFleetWarm; k + kFrameRecs <= in.fleet.size() &&
                                   out.size() < max_batches;
       k += kFrameRecs) {
    out.emplace_back(in.fleet.begin() + k, in.fleet.begin() + k + kFrameRecs);
  }
  return out;
}

/// REPORTB-sized batches that fit one shard queue even if every record
/// routes to the same shard.
inline constexpr std::size_t kRoundFrames = kQueueCapacity / kFrameRecs;

/// No cap on record_batches(): every pool frame, or every fleet batch.
inline constexpr std::size_t kAllBatches = ~std::size_t{0};

/// Warm records (untimed) into a coordinator: the fleet's warm part, or
/// the bulk pool at cycle 0.
inline void warm_records(inputs& in, core::sharded_coordinator& c) {
  if (in.bulk()) {
    for (const auto& b : record_batches(in, 0, kAllBatches)) {
      c.report_batch(b);
    }
  } else {
    c.report_batch(std::span(in.fleet).first(kFleetWarm));
  }
  c.flush();
}

inline std::string frame_text(const std::string& line) {
  return line.substr(0, line.size() - 1);  // drop the '\n' terminator
}

inline int run_traced(inputs& in, const std::string& run_dir) {
  tracer tr;
  metric_set m;
  checks ck;
  const std::string dir = wal_dir(run_dir, in);
  std::uint64_t ops = 0;
  std::uint64_t sink = 0;  // keeps decoded results observable

  // ---- net + gen: a short untraced pass of the workload over TCP -----------
  run_result res;
  double rtt_overhead_us = 0;
  {
    rewind_bulk(in);
    std::optional<replica> prebuilt;
    std::uint64_t wal_seq = 0;
    if (in.wl == workload::durable_ingest) {
      prebuilt.emplace(prebuild_durable(in, dir, wal_seq));
    }
    auto st = setup(in, dir, 4);
    replica rep = prebuilt ? std::move(*prebuilt) : replica(in);
    pin_threads();
    const double writev0 = counter_value(obs::names::kNetWritevCalls);
    const double shed0 = counter_value(obs::names::kNetShedQueries) +
                         counter_value(obs::names::kNetShedReports);
    generator gen(in, *st, rep);
    res = gen.run(std::min(in.seconds, 3.0));
    st->coord->flush();
    const double writevs = counter_value(obs::names::kNetWritevCalls) - writev0;
    const double sheds = counter_value(obs::names::kNetShedQueries) +
                         counter_value(obs::names::kNetShedReports) - shed0;
    auto per = [](double x, std::uint64_t n) {
      return x / static_cast<double>(std::max<std::uint64_t>(1, n));
    };
    m.add("net.writev_per_reply", per(writevs, res.replies), "ratio");
    m.add("net.bytes_per_rec",
          per(static_cast<double>(res.report_bytes), res.report_records), "B");
    m.add("net.shed_ratio", per(sheds, res.attempted), "ratio");

    // Wire round trip vs the in-process handler for the same QUERY frames.
    net::line_client lc;
    lc.connect("127.0.0.1", st->tcp->port());
    lc.hello(3);
    proto::reply_buffer rb;
    const std::size_t n = std::min<std::size_t>(2000, in.query_frames.size());
    for (std::size_t k = 0; k < n; ++k) {
      scoped_span s(tr, "net.rtt.query_v3", -1, k);
      sink += lc.request_frame(in.query_frames[k]).size();
    }
    for (std::size_t k = 0; k < n; ++k) {
      rb.clear();
      scoped_span s(tr, "proto.handle.query_v3_inproc", -1, k);
      st->server->handle(proto::request_view::binary(in.query_frames[k]), rb);
    }
    rtt_overhead_us = (tr.median_ns("net.rtt.query_v3") -
                       tr.median_ns("proto.handle.query_v3_inproc")) /
                      1e3;
    ops += 2 * n;
  }
  unpin_self();
  m.add("net.rtt_overhead_us", rtt_overhead_us, "us");
  std::filesystem::remove_all(dir);

  // ---- proto: the codecs and coordinator_server::handle --------------------
  core::sharded_coordinator pc(in.w.grid, in.w.networks, serving_config(),
                               in.seed);
  proto::coordinator_server ps(pc);
  rewind_bulk(in);
  warm_feed(ps, in, true, 0, in.bulk_frames.size());
  pc.flush();
  proto::reply_buffer rb;
  const std::size_t n_text =
      std::min<std::size_t>(4000, in.report_lines.size());
  std::uint64_t req_id = 0;
  for (std::size_t k = 0; k < n_text; ++k) {
    const std::string line = frame_text(in.report_lines[k]);
    scoped_span s(tr, "proto.decode.report_text", -1, ++req_id);
    sink += proto::decode_report(line).client_id;
  }
  const std::size_t n_checkin =
      std::min<std::size_t>(4000, in.checkin_lines.size());
  for (std::size_t k = 0; k < n_checkin; ++k) {
    const std::string line = frame_text(in.checkin_lines[k]);
    rb.clear();
    scoped_span s(tr, "proto.handle.checkin", -1, ++req_id);
    ps.handle(proto::request_view::text(line), rb);
  }
  constexpr std::size_t kGroup = 8;
  const std::size_t n_groups = std::min<std::size_t>(500, n_text / kGroup);
  for (std::size_t g = 0; g < n_groups; ++g) {
    std::string block;
    for (std::size_t k = 0; k < kGroup; ++k) {
      block += in.report_lines[g * kGroup + k];
    }
    rb.clear();
    scoped_span s(tr, "proto.handle.report_group", -1, ++req_id);
    ps.handle_report_group(block, kGroup, rb);
  }
  // REPORTB frames of the workload's records (the bulk pool one cycle past
  // the warm load, or the fleet's window records).
  std::vector<std::string> frames;
  for (const auto& b : record_batches(in, 1, 512)) {
    frames.push_back(proto::v3::encode_report_batch_frame(b));
  }
  std::vector<trace::measurement_record> recs;
  for (const auto& f : frames) {
    scoped_span s(tr, "proto.decode.reportb_v3", -1, ++req_id);
    proto::v3::decode_report_batch_frame_into(f, recs);
  }
  // In rounds that fit the emptied shard queues, so no span waits on the
  // drain: report_batch blocks while a queue is full.
  for (std::size_t k = 0; k < frames.size(); ++k) {
    if (k % kRoundFrames == 0) pc.flush();
    rb.clear();
    scoped_span s(tr, "proto.handle.reportb_v3", -1, ++req_id);
    ps.handle(proto::request_view::binary(frames[k]), rb);
  }
  const std::size_t n_query =
      std::min<std::size_t>(4000, in.query_frames.size());
  for (std::size_t k = 0; k < n_query; ++k) {
    rb.clear();
    scoped_span s(tr, "proto.handle.query_v3", -1, ++req_id);
    ps.handle(proto::request_view::binary(in.query_frames[k]), rb);
  }
  for (const auto& f : in.queryb_frames) {
    const std::string frame = frame_text(f);
    rb.clear();
    scoped_span s(tr, "proto.handle.queryb", -1, ++req_id);
    ps.handle(proto::request_view::text(frame), rb);
  }
  pc.flush();
  const double recs_per_frame = static_cast<double>(kFrameRecs);
  m.add("proto.decode_ns.report_text", tr.mean_ns("proto.decode.report_text"),
        "ns");
  m.add("proto.handle_ns.checkin", tr.mean_ns("proto.handle.checkin"), "ns");
  m.add("proto.handle_ns.report_group",
        tr.mean_ns("proto.handle.report_group") / kGroup, "ns");
  m.add("proto.decode_ns.reportb_v3_rec",
        tr.mean_ns("proto.decode.reportb_v3") / recs_per_frame, "ns");
  m.add("proto.handle_ns.reportb_v3_rec",
        tr.mean_ns("proto.handle.reportb_v3") / recs_per_frame, "ns");
  m.add("proto.handle_ns.query_v3", tr.mean_ns("proto.handle.query_v3"), "ns");
  m.add("proto.handle_ns.queryb_item",
        tr.mean_ns("proto.handle.queryb") / kQueryBItems, "ns");
  ops += n_text + n_checkin + n_groups + 2 * frames.size() + n_query +
         in.queryb_frames.size();

  // ---- core.ingest: report_batch into the asynchronous pipeline ------------
  {
    core::sharded_coordinator ic(in.w.grid, in.w.networks, serving_config(),
                                 in.seed);
    const auto batches = record_batches(in, 0, 1024);
    std::size_t depth_max = 0;
    std::uint64_t fed = 0;
    const std::int64_t t0 = now_ns();
    for (std::size_t k = 0; k < batches.size(); ++k) {
      // Rounds that fit the emptied queues, as for proto.handle above: the
      // span then holds only the caller's enqueue cost.
      if (k % kRoundFrames == 0) ic.flush();
      {
        scoped_span s(tr, "core.ingest.report_batch", -1, ++req_id);
        fed += ic.report_batch(batches[k]);
      }
      depth_max = std::max(depth_max, ic.queue_depth());
    }
    {
      scoped_span s(tr, "core.ingest.flush", -1, ++req_id);
      ic.flush();
    }
    const double wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    double busy_s = 0, max_ing = 0, sum_ing = 0, drains = 0;
    for (std::size_t s = 0; s < ic.num_shards(); ++s) {
      const core::shard_stats ss = ic.stats_of(s);
      busy_s += ss.drain_latency_s;
      max_ing = std::max(max_ing, static_cast<double>(ss.reports_ingested));
      sum_ing += static_cast<double>(ss.reports_ingested);
      drains += static_cast<double>(ss.drain_batches);
    }
    m.add("core.ingest.enqueue_ns_rec",
          tr.total_ns("core.ingest.report_batch") /
              static_cast<double>(std::max<std::uint64_t>(1, fed)),
          "ns");
    m.add("core.ingest.shard_busy_ratio",
          busy_s / (wall_s * static_cast<double>(ic.num_shards())), "ratio");
    m.add("core.ingest.shard_skew",
          max_ing / (sum_ing / static_cast<double>(ic.num_shards())), "ratio");
    m.add("core.ingest.drain_batch_mean", sum_ing / std::max(1.0, drains),
          "count");
    m.add("core.ingest.queue_depth_max", static_cast<double>(depth_max),
          "count");
    // Enqueue -> applied for a lone record, observed through flush().
    const std::size_t n_wait =
        std::min<std::size_t>(256, in.fleet.size() - kFleetWarm);
    for (std::size_t k = 0; k < n_wait; ++k) {
      const trace::measurement_record& r = in.fleet[kFleetWarm + k];
      scoped_span s(tr, "core.ingest.queue_wait", -1, ++req_id);
      ic.report_batch(std::span(&r, 1));
      ic.flush();
    }
    m.add("core.ingest.queue_wait_us",
          tr.median_ns("core.ingest.queue_wait") / 1e3, "us");
    ops += batches.size() + n_wait;
  }

  // ---- core.checkin and core.view on the warmed serving coordinator --------
  for (std::size_t k = 0; k < n_checkin; ++k) {
    const trace::measurement_record& r = in.fleet[kFleetWarm + k];
    const std::size_t net = r.network == in.w.networks[0] ? 0 : 1;
    scoped_span s(tr, "core.checkin", -1, ++req_id);
    sink += pc.checkin(r.pos, r.time_s, net, 4, r.client_id).has_value();
  }
  m.add("core.checkin.ns", tr.mean_ns("core.checkin"), "ns");
  {
    const core::estimate_view view(pc);
    std::uint64_t hits = 0;
    for (std::size_t k = 0; k < n_query; ++k) {
      const proto::query_request& q = in.queries[k];
      const geo::zone_id zone = in.w.grid.zone_of(q.pos);
      const std::uint16_t nid = view.network_id_of(q.network);
      scoped_span s(tr, "core.view.lookup", -1, ++req_id);
      hits += view.lookup(zone, nid, q.metric, q.time_s).has_value();
    }
    m.add("core.view.lookup_ns", tr.mean_ns("core.view.lookup"), "ns");
    m.add("core.view.hit_ratio",
          static_cast<double>(hits) / static_cast<double>(n_query), "ratio");
  }
  ops += n_checkin + n_query;

  // ---- core.table: apply + freeze + publish, synchronous, one shard --------
  counting_tap tap;
  core::sharded_coordinator tc(in.w.grid, in.w.networks, sync_config(),
                               in.seed);
  warm_records(in, tc);
  tc.set_epoch_tap(&tap);
  std::uint64_t table_recs = 0;
  for (const auto& b : record_batches(in, 1, kAllBatches)) {
    scoped_span s(tr, "core.table.apply", -1, ++req_id);
    table_recs += tc.report_batch(b);
  }
  tc.set_epoch_tap(nullptr);
  m.add("core.table.apply_ns_rec",
        tr.total_ns("core.table.apply") / static_cast<double>(table_recs),
        "ns");
  m.add("core.table.rollovers_per_krec",
        1000.0 * static_cast<double>(tap.count) /
            static_cast<double>(table_recs),
        "count");

  // ---- core.wal: durable_log append / checkpoint / recover -----------------
  {
    const std::string wdir = run_dir + "/sweep-wal-" +
                             std::to_string(::getpid());
    std::filesystem::remove_all(wdir);
    std::filesystem::create_directories(wdir);
    core::durable_log wal(wdir);
    std::uint64_t seq = 0;
    for (const auto& [key, est] : tap.kept) {
      scoped_span s(tr, "core.wal.append", -1, ++req_id);
      wal.append(++seq, key, est);
    }
    const double wal_bytes =
        static_cast<double>(std::filesystem::file_size(wal.wal_path()));
    {
      scoped_span s(tr, "core.wal.checkpoint", -1, ++req_id);
      wal.checkpoint(tc);
    }
    for (std::size_t k = 0; k < 1000 && k < tap.kept.size(); ++k) {
      wal.append(++seq, tap.kept[k].first, tap.kept[k].second);
    }
    core::sharded_coordinator rc(in.w.grid, in.w.networks, sync_config(),
                                 in.seed);
    std::uint64_t got = 0;
    {
      scoped_span s(tr, "core.wal.recover", -1, ++req_id);
      got = wal.recover(rc);
    }
    ck.add("wal_recover_seq", got == seq,
           std::to_string(got) + " vs " + std::to_string(seq));
    m.add("core.wal.append_us", tr.mean_ns("core.wal.append") / 1e3, "us");
    m.add("core.wal.bytes_per_epoch",
          wal_bytes / static_cast<double>(std::max<std::size_t>(
                          1, tap.kept.size())),
          "B");
    m.add("core.wal.recover_s", tr.total_ns("core.wal.recover") / 1e9, "s");
    m.add("core.wal.checkpoint_s", tr.total_ns("core.wal.checkpoint") / 1e9,
          "s");
    std::filesystem::remove_all(wdir);
    ops += tap.kept.size() + 2;
  }

  // ---- repl: leader log pulls, follower apply, snapshot catch-up -----------
  {
    core::sharded_coordinator lc(in.w.grid, in.w.networks, sync_config(),
                                 in.seed);
    repl::leader lead(lc, std::size_t{1} << 20);
    proto::coordinator_server ls(lc);
    ls.attach_replication(&lead);
    warm_records(in, lc);
    for (const auto& b : record_batches(in, 1, kAllBatches)) {
      lc.report_batch(b);
    }
    replica fo(in);
    std::vector<proto::epoch_update> ups;
    std::uint64_t since = 0;
    std::uint64_t pulled = 0;
    for (;;) {
      ups.clear();
      {
        scoped_span s(tr, "repl.pull", -1, ++req_id);
        lead.pull(since, proto::v3::max_epoch_batch, ups);
      }
      if (ups.empty()) break;
      {
        scoped_span s(tr, "repl.apply", -1, req_id);
        fo.fol->apply(ups);
      }
      pulled += ups.size();
      since = ups.back().seq;
    }
    std::string chunk;
    std::uint64_t total = 0;
    bool last = false;
    lead.snapshot(0, chunk, total, last);
    replica fresh(in);
    const repl::transport inproc = [&](std::string_view f) {
      return handle_bytes(ls, f);
    };
    {
      scoped_span s(tr, "repl.catchup_inproc", -1, ++req_id);
      fresh.fol->catch_up(inproc);
      fresh.fol->poll(inproc);
    }
    ck.add("repl_inproc_cursor",
           fresh.fol->applied_seq() == lead.log().last_seq() &&
               fo.fol->applied_seq() == lead.log().last_seq());
    const double per = static_cast<double>(std::max<std::uint64_t>(1, pulled));
    m.add("repl.pull_ns_rec", tr.total_ns("repl.pull") / per, "ns");
    m.add("repl.apply_ns_rec", tr.total_ns("repl.apply") / per, "ns");
    m.add("repl.snapshot_bytes", static_cast<double>(total), "B");
    m.add("repl.catchup_inproc_s", tr.total_ns("repl.catchup_inproc") / 1e9,
          "s");
    ops += pulled / proto::v3::max_epoch_batch + 2;
  }

  // ---- gen ------------------------------------------------------------------
  {
    std::vector<double> late = res.late_us;
    const double pct = tail_pct(late.size());
    m.add("gen.late_p99_us", pct > 0 ? percentile(late, pct) : 0.0, "us");
    m.add("gen.threads", static_cast<double>(kGenThreads), "count");
    m.add("gen.conns", static_cast<double>(res.conns), "count");
  }

  // ---- trace: stage coverage of handle() and the cost of the spans ---------
  // The REPORTB path staged by hand (decode -> report_batch -> ACK encode)
  // on fresh synchronous coordinators, untraced and traced, against
  // coordinator_server::handle() on the same frames; medians of 4 rounds.
  {
    const std::size_t nf = std::min<std::size_t>(256, frames.size());
    std::vector<double> untraced, traced, handled, stages;
    auto untraced_pass = [&] {
      core::sharded_coordinator u(in.w.grid, in.w.networks, sync_config(),
                                  in.seed);
      const std::int64_t t = now_ns();
      for (std::size_t k = 0; k < nf; ++k) {
        proto::v3::decode_report_batch_frame_into(frames[k], recs);
        u.report_batch(recs);
        rb.clear();
        proto::v3::encode_ack_frame(recs.size(), rb);
      }
      untraced.push_back(static_cast<double>(now_ns() - t));
    };
    auto traced_pass = [&] {
      core::sharded_coordinator u(in.w.grid, in.w.networks, sync_config(),
                                  in.seed);
      auto stage_self = [&] {
        return tr.self_ns("trace.stage.decode") +
               tr.self_ns("trace.stage.report_batch") +
               tr.self_ns("trace.stage.ack_encode");
      };
      const double before = stage_self();
      const std::int64_t t = now_ns();
      for (std::size_t k = 0; k < nf; ++k) {
        scoped_span root(tr, "trace.staged.reportb_v3", -1, ++req_id);
        {
          scoped_span s(tr, "trace.stage.decode", root.id(), req_id);
          proto::v3::decode_report_batch_frame_into(frames[k], recs);
        }
        {
          scoped_span s(tr, "trace.stage.report_batch", root.id(), req_id);
          u.report_batch(recs);
        }
        {
          scoped_span s(tr, "trace.stage.ack_encode", root.id(), req_id);
          rb.clear();
          proto::v3::encode_ack_frame(recs.size(), rb);
        }
      }
      traced.push_back(static_cast<double>(now_ns() - t));
      stages.push_back(stage_self() - before);
    };
    auto handled_pass = [&] {
      core::sharded_coordinator u(in.w.grid, in.w.networks, sync_config(),
                                  in.seed);
      proto::coordinator_server us(u);
      const std::int64_t t = now_ns();
      for (std::size_t k = 0; k < nf; ++k) {
        rb.clear();
        us.handle(proto::request_view::binary(frames[k]), rb);
      }
      handled.push_back(static_cast<double>(now_ns() - t));
    };
    // Alternate the order so no pass always inherits the previous one's
    // warm allocator.
    for (int round = 0; round < 4; ++round) {
      if (round % 2 == 0) {
        untraced_pass();
        traced_pass();
        handled_pass();
      } else {
        handled_pass();
        traced_pass();
        untraced_pass();
      }
    }
    m.add("trace.coverage", median_of(stages) / median_of(handled), "ratio");
    m.add("trace.overhead_ratio", median_of(traced) / median_of(untraced),
          "ratio");
    ops += 12 * nf;
  }

  tr.write(run_dir + "/spans-" + name_of(in.wl) + ".csv");
  ck.add("no_protocol_errors", res.protocol_errors == 0,
         std::to_string(res.protocol_errors));
  std::printf("{\"detail\": {\"workload\": %s, \"trace\": 1, \"spans\": %zu, "
              "\"sink\": %llu, \"fingerprint\": %s, \"checks\": %s}}\n",
              json_str(name_of(in.wl)).c_str(), tr.size(),
              static_cast<unsigned long long>(sink % 1000),
              fingerprint(in.wl, in.seed, run_dir, res.conns, in.r).c_str(),
              ck.json().c_str());
  print_result(ck.ok(), res.attempted + ops, res.failed, m);
  return ck.ok() ? 0 : 1;
}

}  // namespace perfbench
