// The single-threaded load generator.
//
// One thread drives every connection nonblocking. Open-loop streams send at
// fixed offered rates on a constant-interval schedule and are timed from
// their due time, so a stall in the server or the generator shows in the
// latency of everything due meanwhile; the generator's own lateness (send
// time minus due time) is recorded beside them. The bulk uploaders are a
// closed loop with a fixed window of REPORTB frames in flight, held back
// while the pipeline's backlog is high. The
// replication follower pulls EPOCH over its own connection on a fixed
// cadence and applies the replies on this thread, so the follower adds no
// thread to the budget.
#pragma once

#include <sys/socket.h>

#include <cerrno>
#include <cstdio>
#include <deque>
#include <optional>

#include "stack.h"

namespace perfbench {

/// One QUERY/QUERYB answer kept for the post-run comparison.
struct query_sample {
  proto::query_request q;
  bool present = false;
  std::uint64_t count = 0;
  std::uint64_t epoch_index = 0;
  double mean = 0.0;
  double stddev = 0.0;
};

/// CPU time the hypervisor took from this machine (steal), as a share of
/// all CPU time since the meter's snapshot; -1 when /proc/stat is
/// unreadable.
class steal_meter {
 public:
  steal_meter() { read(total_, steal_); }
  double share() const {
    std::uint64_t t = 0, st = 0;
    if (!read(t, st) || t <= total_) return -1.0;
    return static_cast<double>(st - steal_) / static_cast<double>(t - total_);
  }
  /// share(), then a new snapshot.
  double lap() {
    const double s = share();
    read(total_, steal_);
    return s;
  }

 private:
  static bool read(std::uint64_t& total, std::uint64_t& steal) {
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (!f) return false;
    unsigned long long v[8] = {};
    const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
    std::fclose(f);
    if (n != 8) return false;
    total = 0;
    for (auto x : v) total += x;
    steal = v[7];
    return true;
  }
  std::uint64_t total_ = 0;
  std::uint64_t steal_ = 0;
};

struct run_result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;           // ERR replies + unanswered requests
  std::uint64_t overload = 0;         // of failed: ERR overload
  std::uint64_t protocol_errors = 0;  // unexpected replies (a wrong answer)
  std::uint64_t unanswered = 0;
  std::uint64_t acked_records = 0;    // over the whole run, drain included
  std::uint64_t window_acked = 0;     // ACKed inside the timed window
  /// Per slot of the window: records ACKed, the first and last ACK times
  /// and the records the first ACK carried.
  struct ack_slot {
    std::uint64_t records = 0;
    std::uint64_t first_records = 0;
    std::int64_t first_ns = 0;
    std::int64_t last_ns = 0;
  };
  std::vector<ack_slot> acks_by_slot;
  double window_s = 0.0;
  std::uint64_t report_bytes = 0;     // report-class request bytes sent
  std::uint64_t report_records = 0;   // records in them
  std::uint64_t replies = 0;
  std::uint64_t probes_skipped = 0;
  std::uint64_t lag_unresolved = 0;
  std::size_t conns = 0;
  series checkin_us, report_us, query_us, queryb_us;
  series fresh_ms;
  series lag_ms;          // repl lag: the sample's pull round, send -> applied
  series lag_ack_ms;      // ACK -> leader applied, plus that round
  series lag_cadence_ms;  // ACK -> follower applied, cadence wait included
  std::vector<double> late_us;
  series lag_apply_ms;    // lag sample: ACK -> leader applied
  std::uint64_t pulls = 0;
  std::uint64_t uploader_pauses = 0;  // frames held back by the backlog
  double steal_share = -1.0;          // hypervisor steal over the run
  std::vector<double> slot_steal;     // hypervisor steal per whole slot
  std::uint64_t pulled_records = 0;
  std::vector<query_sample> samples;
};

class generator {
 public:
  generator(inputs& in, stack& st, replica& rep) : in_(in), st_(st), rep_(rep) {
    const bool fleet = in.wl == workload::fleet_mix;
    // fleet_mix: fleet / app readers + probes / dashboard / replication.
    // bulk: side trickle / two uploaders / replication.
    const std::size_t c_fleet = 0;
    const std::size_t c_app = fleet ? 1 : 0;
    const std::size_t c_dash = fleet ? 2 : 0;
    repl_c_ = 3;
    if (!fleet) bulk_c_ = {1, 2};
    const rates& r = in.r;
    auto add = [&](req k, std::size_t c, double rate, double phase,
                   std::size_t limit) {
      paced_.push_back({k, c, 1e9 / rate, phase * 1e9 / rate, 0, limit});
    };
    add(req::checkin, c_fleet, r.checkin, 0.0, in.checkin_lines.size());
    add(req::report, c_fleet, r.report, 0.5, in.report_lines.size());
    add(req::query, c_app, r.query, 0.25, in.query_frames.size());
    add(req::queryb, c_dash, r.queryb, 0.125, ~std::size_t{0});
    add(req::probe_report, c_app, r.probe, 0.75, ~std::size_t{0});
    expected_.assign(kProbeStreams, 0);
    next_probe_.assign(kProbeStreams, 0);
    probe_sent_.assign(kProbeStreams, 0);
    probe_active_.assign(kProbeStreams, 0);
    probe_gen_.assign(kProbeStreams, 0);
  }

  run_result run(double seconds) {
    res_ = run_result{};
    res_.conns = st_.conns.size();
    const std::int64_t t0 = now_ns() + 2'000'000;
    t0_ = t0;
    // The window lasts `seconds`, and runs on, up to kMaxStretch times as
    // long, until it holds as many calm slots as the statistics keep.
    const auto min_len = static_cast<std::int64_t>(seconds * 1e9);
    const auto max_len =
        static_cast<std::int64_t>(seconds * kMaxStretch * 1e9);
    const std::size_t need = kept_slots(seconds);
    std::size_t calm = 0;
    res_.acks_by_slot.assign(slot_of(max_len) + 2, {});
    std::int64_t deadline = t0 + max_len + 5'000'000'000;
    std::int64_t next_pull = t0;
    std::int64_t next_lag_check = t0;
    while (now_ns() < t0) {
    }
    open_ = true;
    const steal_meter steal;
    steal_meter slot_steal;
    std::int64_t next_slot = t0 + kSlotNs;
    for (std::size_t c : bulk_c_) {
      for (std::size_t k = 0; k < kInFlight; ++k) send_frame(c);
    }
    for (;;) {
      std::int64_t now = now_ns();
      if (open_ && now >= next_slot) {
        const double share = slot_steal.lap();
        for (; open_ && now >= next_slot; next_slot += kSlotNs) {
          res_.slot_steal.push_back(share);
          if (share <= kCalmSteal) ++calm;  // -1: /proc/stat unreadable
          const std::int64_t len = next_slot - t0;
          if (len >= min_len && (calm >= need || len >= max_len)) {
            open_ = false;
            res_.window_s = static_cast<double>(now - t0) / 1e9;
            res_.steal_share = steal.share();
            deadline = now + 5'000'000'000;
          }
        }
      }
      if (open_ && owed_ > 0 && now >= next_hold_check_) {
        next_hold_check_ = now + kHoldCheckNs;
        if (backlog_low()) {
          for (std::size_t c : bulk_c_) {
            for (; owed_by_[c] > 0; --owed_by_[c], --owed_) send_frame(c);
          }
        }
      }
      if (open_) {
        for (auto& p : paced_) {
          while (p.next < p.limit) {
            const std::int64_t due = t0 + static_cast<std::int64_t>(
                                              p.phase + p.period * p.next);
            if (due > now) break;
            emit(p, due, now);
            ++p.next;
          }
        }
      }
      if ((open_ || !lags_.empty()) && !pull_outstanding_ &&
          now >= next_pull) {
        send_pull();
        while (next_pull <= now) next_pull += kPullPeriodNs;
      }
      for (auto& c : st_.conns) flush(c);
      for (auto& c : st_.conns) receive(c);
      now = now_ns();
      if (now >= next_lag_check) {
        check_lags(now);
        next_lag_check = now + 50'000;
      }
      if (!open_) {
        bool idle = lags_.empty();
        for (auto& c : st_.conns) idle = idle && c.q.empty();
        if (idle || now > deadline) break;
      }
    }
    for (auto& c : st_.conns) {
      res_.unanswered += c.q.size();
      c.q.clear();
    }
    res_.failed += res_.unanswered;
    res_.lag_unresolved = lags_.size();
    lags_.clear();
    return std::move(res_);
  }

 private:
  struct paced {
    req kind;
    std::size_t conn;
    double period;  // ns
    double phase;   // ns
    std::uint64_t next;
    std::uint64_t limit;
  };
  struct lag_sample {
    std::int64_t t_ack;
    std::uint64_t target;     // reports_received() at the ACK
    std::uint64_t need_pull;  // first pull sent after the records applied
    std::int64_t t_applied;   // when the leader was seen to have applied them
    bool applied;
  };

  void count_window_ack(std::uint64_t n, std::int64_t now) {
    res_.window_acked += n;
    const std::size_t k = slot_of(now - t0_);
    if (k >= res_.acks_by_slot.size()) return;
    run_result::ack_slot& a = res_.acks_by_slot[k];
    if (a.records == 0) {
      a.first_records = n;
      a.first_ns = now;
    }
    a.records += n;
    a.last_ns = now;
  }

  void push(std::size_t c, std::string_view bytes, req k, std::int64_t due,
            std::uint32_t aux) {
    st_.conns[c].out.append(bytes);
    st_.conns[c].q.push_back({k, due, aux});
    ++res_.attempted;
  }

  void emit(paced& p, std::int64_t due, std::int64_t now) {
    const auto n = p.next;
    switch (p.kind) {
      case req::checkin:
        push(p.conn, in_.checkin_lines[n], req::checkin, due, 0);
        break;
      case req::report:
        push(p.conn, in_.report_lines[n], req::report, due, 0);
        res_.report_bytes += in_.report_lines[n].size();
        ++res_.report_records;
        break;
      case req::query:
        push(p.conn, in_.query_frames[n], req::query, due,
             static_cast<std::uint32_t>(n));
        break;
      case req::queryb: {
        const auto f = static_cast<std::uint32_t>(n % kQueryBPool);
        push(p.conn, in_.queryb_frames[f], req::queryb, due, f);
        break;
      }
      case req::probe_report: {
        const auto s = static_cast<std::uint32_t>(n % kProbeStreams);
        const std::size_t j = next_probe_[s];
        if (probe_active_[s] || j >= in_.probe_lines[s].size()) {
          ++res_.probes_skipped;
          return;
        }
        ++next_probe_[s];
        expected_[s] = j;
        probe_active_[s] = 1;
        probe_sent_[s] = now;
        push(p.conn, in_.probe_lines[s][j], req::probe_report, due, s);
        res_.report_bytes += in_.probe_lines[s][j].size();
        ++res_.report_records;
        ++probe_gen_[s];
        for (int k = 0; k < kProbePolls; ++k) {
          push(p.conn, in_.probe_query[s], req::probe_query, due, probe_tag(s));
        }
        break;
      }
      default:
        break;
    }
    res_.late_us.push_back(static_cast<double>(now - due) / 1e3);
  }

  void send_frame(std::size_t c) {
    const std::size_t f = next_frame_ % in_.bulk_frames.size();
    in_.patch(f, 1 + next_frame_ / in_.bulk_frames.size());
    ++next_frame_;
    push(c, in_.bulk_frames[f], req::reportb, now_ns(), 0);
    res_.report_bytes += in_.bulk_frames[f].size();
    res_.report_records += kFrameRecs;
  }

  /// Whether the records the coordinator accepted but has not applied yet
  /// are fewer than kUploaderHoldRecords. Both counters are lock-free; the
  /// queue-depth gauge would take each shard queue's mutex, which the event
  /// loop and the drain workers need. A drain can count a record applied
  /// before report_batch counts it received, hence the first test.
  bool backlog_low() const {
    const std::uint64_t applied = st_.coord->reports_ingested();
    const std::uint64_t accepted = st_.coord->reports_received();
    return accepted <= applied || accepted - applied < kUploaderHoldRecords;
  }

  void send_pull() {
    proto::v3::epoch_pull p;
    p.since_seq = rep_.fol->applied_seq();
    p.max_records = static_cast<std::uint32_t>(proto::v3::max_epoch_batch);
    pull_rb_.clear();
    proto::v3::encode_epoch_pull_frame(p, pull_rb_);
    const std::int64_t now = now_ns();
    pull_sent_at_.push_back(now);
    push(repl_c_, pull_rb_.view(), req::epoch, now,
         static_cast<std::uint32_t>(++pulls_sent_));
    pull_outstanding_ = true;
  }

  void flush(conn& c) {
    while (c.out_pos < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos,
                               c.out.size() - c.out_pos, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
        throw std::runtime_error("send failed");
      }
      c.out_pos += static_cast<std::size_t>(n);
    }
    c.out.clear();
    c.out_pos = 0;
  }

  /// Length of the complete reply at the front of `b`, or 0 if incomplete.
  static std::size_t reply_len(std::string_view b) {
    if (b.empty()) return 0;
    if (proto::v3::is_frame_start(b)) {
      const auto h = proto::v3::peek_header(b);
      if (!h) {
        if (b.size() < proto::v3::frame_header_bytes) return 0;
        throw std::runtime_error("malformed reply frame");
      }
      const std::size_t n = proto::v3::frame_header_bytes + h->payload_len;
      return b.size() >= n ? n : 0;
    }
    std::size_t nl = b.find('\n');
    if (nl == std::string_view::npos) return 0;
    std::size_t extra = proto::reply_extra_lines(b.substr(0, nl));
    std::size_t pos = nl + 1;
    while (extra-- > 0) {
      nl = b.find('\n', pos);
      if (nl == std::string_view::npos) return 0;
      pos = nl + 1;
    }
    return pos;
  }

  void receive(conn& c) {
    char buf[256 * 1024];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      if (n > 0) {
        c.in.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      throw std::runtime_error("connection lost");
    }
    const std::int64_t now = now_ns();
    for (;;) {
      const std::string_view rest =
          std::string_view(c.in).substr(c.in_pos);
      const std::size_t len = reply_len(rest);
      if (len == 0) break;
      if (c.q.empty()) throw std::runtime_error("reply without a request");
      const pending p = c.q.front();
      c.q.pop_front();
      on_reply(c, p, rest.substr(0, len), now);
      c.in_pos += len;
    }
    if (c.in_pos == c.in.size()) {
      c.in.clear();
      c.in_pos = 0;
    } else if (c.in_pos > (1u << 20)) {
      c.in.erase(0, c.in_pos);
      c.in_pos = 0;
    }
  }

  bool is_error(std::string_view r) {
    bool err = false;
    bool overload = false;
    if (proto::v3::is_frame_start(r)) {
      const auto h = proto::v3::peek_header(r);
      if (h && h->op == proto::v3::opcode::err) {
        err = true;
        overload = proto::v3::decode_error_frame(r).code ==
                   proto::err_code::overload;
      }
    } else if (r.rfind("ERR", 0) == 0) {
      err = true;
      overload = r.rfind("ERR overload", 0) == 0;
    }
    if (err) {
      ++res_.failed;
      if (overload) {
        ++res_.overload;
      } else {
        ++res_.protocol_errors;
      }
    }
    return err;
  }

  void wrong_reply() {
    ++res_.failed;
    ++res_.protocol_errors;
  }

  static std::optional<proto::v3::opcode> opcode_of(std::string_view r) {
    const auto h = proto::v3::peek_header(r);
    if (!h) return std::nullopt;
    return h->op;
  }

  void on_reply(conn& c, const pending& p, std::string_view r,
                std::int64_t now) {
    (void)c;
    ++res_.replies;
    const double lat_us = static_cast<double>(now - p.due_ns) / 1e3;
    const bool err = is_error(r);
    std::string_view text = r;
    if (!text.empty() && text.back() == '\n') text.remove_suffix(1);
    switch (p.kind) {
      case req::checkin:
        if (err) return;
        if (text.rfind("TASK", 0) != 0 && text != "IDLE") return wrong_reply();
        res_.checkin_us.add(lat_us, p.due_ns - t0_);
        return;
      case req::report:
      case req::probe_report:
        if (err) return;
        if (text != "ACK") return wrong_reply();
        ++res_.acked_records;
        if (open_) count_window_ack(1, now);
        if (p.kind == req::probe_report) return;
        res_.report_us.add(lat_us, p.due_ns - t0_);
        if (open_ && sampled(++report_acks_, 20)) add_lag(now);
        return;
      case req::query: {
        if (err) return;
        if (opcode_of(r) != proto::v3::opcode::est) return wrong_reply();
        res_.query_us.add(lat_us, p.due_ns - t0_);
        if (in_.query_sampled[p.aux]) {
          keep(in_.queries[p.aux], proto::v3::decode_estimate_frame(r));
        }
        return;
      }
      case req::queryb: {
        if (err) return;
        if (text.rfind("ESTB", 0) != 0) return wrong_reply();
        res_.queryb_us.add(lat_us, p.due_ns - t0_);
        const auto all = proto::decode_estimate_batch(text);
        const auto& items = in_.queryb_items[p.aux];
        if (all.size() != items.size()) return wrong_reply();
        for (std::size_t k = 0; k < 8; ++k) {
          const std::size_t at = (k * 131 + p.aux * 17 + queryb_seen_) %
                                 items.size();
          keep(items[at], all[at]);
        }
        ++queryb_seen_;
        return;
      }
      case req::probe_query: {
        const std::uint32_t s = p.aux & 0xFF;
        const bool current = probe_active_[s] && (p.aux >> 8) == probe_gen_[s];
        if (err) {
          if (current) probe_active_[s] = 0;
          return;
        }
        if (opcode_of(r) != proto::v3::opcode::est) return wrong_reply();
        if (!current) return;  // a poll still in flight when the probe ended
        const auto est = proto::v3::decode_estimate_frame(r);
        if (est && est->epoch_index >= expected_[s]) {
          res_.fresh_ms.add(static_cast<double>(now - probe_sent_[s]) / 1e6,
                            probe_sent_[s] - t0_);
          probe_active_[s] = 0;
        } else {
          push(c_index(c), in_.probe_query[s], req::probe_query, now, p.aux);
        }
        return;
      }
      case req::reportb: {
        std::size_t self = c_index(c);
        if (!err) {
          if (opcode_of(r) != proto::v3::opcode::ack) return wrong_reply();
          const std::uint64_t n = proto::v3::decode_ack_frame(r).count;
          res_.acked_records += n;
          if (open_) count_window_ack(n, now);
          if (open_ && sampled(++frame_acks_, 100)) add_lag(now);
        }
        if (!open_) return;
        // While frames are held, this one queues behind them; the main loop
        // releases them all once the backlog has fallen.
        if (owed_ == 0 && backlog_low()) {
          send_frame(self);
        } else {
          ++owed_by_[self];
          ++owed_;
          ++res_.uploader_pauses;
        }
        return;
      }
      case req::epoch: {
        pull_outstanding_ = false;
        if (err) return;
        if (opcode_of(r) != proto::v3::opcode::epochb) return wrong_reply();
        proto::v3::decode_epoch_batch_frame_into(r, updates_);
        rep_.fol->apply(updates_);
        ++res_.pulls;
        res_.pulled_records += updates_.size();
        if (updates_.size() == proto::v3::max_epoch_batch) {
          send_pull();
        } else {
          drained_pull_ = p.aux;  // the log's tail as of this pull's serving
        }
        check_lags(now_ns());
        return;
      }
    }
  }

  std::size_t c_index(const conn& c) const {
    return static_cast<std::size_t>(&c - st_.conns.data());
  }

  void keep(const proto::query_request& q,
            const std::optional<proto::estimate_reply>& e) {
    query_sample s;
    s.q = q;
    s.present = e.has_value();
    if (e) {
      s.count = e->count;
      s.epoch_index = e->epoch_index;
      s.mean = e->mean;
      s.stddev = e->stddev;
    }
    res_.samples.push_back(std::move(s));
  }

  // ---- replication lag ----------------------------------------------------
  // A sampled ACK records how many records the coordinator had accepted.
  // Once it has applied that many, every rollover the sampled request caused
  // is in the leader's log, so the first EPOCH pull sent after that moment
  // -- followed until a short batch ends its round -- brings all of them to
  // the follower; the sample completes when that round is applied. The
  // gated lag is that round's time from its first pull's send: what
  // replication adds once the leader holds the records. ACK -> applied on
  // the leader is the ingest backlog, set by the uploaders' hold level and
  // the drain rate (ingest_rec_per_s), and the wait for the next pull is
  // the follower's fixed cadence, a constant of this benchmark; both are
  // kept in diagnostics (lag_apply, lag_ack, lag_cadence). Both counters are
  // lock-free, and the generator never takes the leader log's lock, which a
  // drain worker holds through each WAL append. The count is global, so a
  // shard that runs ahead of the other can end the wait early by at most
  // the other shard's backlog.
  /// Picks about one ACK in `every` by a hash of its index: a fixed stride
  /// would beat against the fixed pull cadence and park the median on one
  /// of a few phase offsets.
  static bool sampled(std::uint64_t index, std::uint64_t every) {
    return rng::mix(index) % every == 0;
  }

  void add_lag(std::int64_t now) {
    if (lags_.size() >= 4096) return;
    lags_.push_back({now, st_.coord->reports_received(), 0, 0, false});
  }

  void check_lags(std::int64_t now) {
    if (lags_.empty()) return;
    const std::uint64_t applied = st_.coord->reports_ingested();
    // Targets grow with ACK order, so the applied samples form a prefix.
    for (lag_sample& l : lags_) {
      if (l.applied) continue;
      if (applied < l.target) break;
      l.need_pull = pulls_sent_ + 1;
      l.t_applied = now;
      l.applied = true;
      res_.lag_apply_ms.add(static_cast<double>(now - l.t_ack) / 1e6,
                            l.t_ack - t0_);
    }
    while (!lags_.empty() && lags_.front().applied &&
           drained_pull_ >= lags_.front().need_pull) {
      const lag_sample& l = lags_.front();
      const std::int64_t round = now - pull_sent_at_[l.need_pull - 1];
      res_.lag_ms.add(static_cast<double>(round) / 1e6, l.t_ack - t0_);
      res_.lag_ack_ms.add(
          static_cast<double>(l.t_applied - l.t_ack + round) / 1e6,
          l.t_ack - t0_);
      res_.lag_cadence_ms.add(static_cast<double>(now - l.t_ack) / 1e6,
                              l.t_ack - t0_);
      lags_.pop_front();
    }
  }

  inputs& in_;
  stack& st_;
  replica& rep_;
  std::vector<paced> paced_;
  std::vector<std::size_t> bulk_c_;
  std::size_t repl_c_ = 3;
  bool open_ = false;
  std::int64_t t0_ = 0;
  bool pull_outstanding_ = false;
  std::uint64_t pulls_sent_ = 0;   // EPOCH pulls sent (the pull's id)
  std::vector<std::int64_t> pull_sent_at_;  // send time of pull id k + 1
  std::uint64_t drained_pull_ = 0;  // last pull answered with a short batch
  std::uint64_t next_frame_ = 0;
  std::int64_t next_hold_check_ = 0;
  std::size_t owed_ = 0;                    // frames held back, all conns
  std::size_t owed_by_[4] = {0, 0, 0, 0};  // per connection
  std::uint64_t report_acks_ = 0;
  std::uint64_t frame_acks_ = 0;
  std::uint64_t queryb_seen_ = 0;
  std::vector<std::uint64_t> expected_;
  std::vector<std::size_t> next_probe_;
  std::vector<std::int64_t> probe_sent_;
  std::vector<std::uint8_t> probe_active_;
  std::vector<std::uint32_t> probe_gen_;
  // QUERY polls a probe keeps in flight: two halve the polling quantum
  // that would otherwise round every freshness sample to whole round trips.
  static constexpr int kProbePolls = 2;
  std::uint32_t probe_tag(std::uint32_t s) const {
    return s | (probe_gen_[s] << 8);
  }
  std::deque<lag_sample> lags_;
  std::vector<proto::epoch_update> updates_;
  proto::reply_buffer pull_rb_;
  run_result res_;
};

}  // namespace perfbench
