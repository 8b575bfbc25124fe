#include "repl/replica.h"

#include <algorithm>
#include <stdexcept>

#include "core/fault_injection.h"
#include "core/persist.h"
#include "obs/names.h"
#include "obs/registry.h"
#include "proto/wire_v3.h"

namespace wiscape::repl {

namespace v3 = proto::v3;

namespace {
struct repl_metrics {
  obs::counter& snapshot_chunks;
  obs::counter& promotions;
  obs::counter& applied;
  obs::counter& merged;
  obs::counter& duplicates;
  obs::counter& lag_skips;
};

repl_metrics& metrics() {
  auto& reg = obs::registry::global();
  static repl_metrics m{reg.get_counter(obs::names::kReplSnapshotChunks),
                        reg.get_counter(obs::names::kReplPromotions),
                        reg.get_counter(obs::names::kReplEpochsApplied),
                        reg.get_counter(obs::names::kReplEpochsMerged),
                        reg.get_counter(obs::names::kReplDuplicates),
                        reg.get_counter(obs::names::kReplLagSkips)};
  return m;
}

/// Serves one bounded slice of a fenced catch-up snapshot; offset 0
/// captures a fresh one into `cache`. The fence is read before the state
/// walk: every record at or below it rolled over before the walk started,
/// so the snapshot covers it; records that land mid-walk may appear in both
/// the snapshot and the pull that follows, which the idempotent re-apply
/// absorbs.
bool serve_snapshot(const core::sharded_coordinator& coord,
                    std::uint64_t fence, std::string& cache,
                    std::uint64_t offset, std::string& data,
                    std::uint64_t& total, bool& last) {
  if (offset == 0) cache = core::encode_snapshot(coord, fence);
  total = cache.size();
  if (offset > total) return false;
  const std::size_t len = std::min<std::uint64_t>(
      v3::max_snapshot_chunk, total - offset);
  data.assign(cache, static_cast<std::size_t>(offset), len);
  last = offset + len == total;
  metrics().snapshot_chunks.inc();
  return true;
}
}  // namespace

leader::leader(core::sharded_coordinator& coord, std::size_t log_capacity,
               core::durable_log* wal)
    : coordinator_(&coord), log_(log_capacity, wal) {
  coordinator_->set_epoch_tap(&log_);
}

leader::~leader() { coordinator_->set_epoch_tap(nullptr); }

bool leader::pull(std::uint64_t since_seq, std::uint32_t max_records,
                  std::vector<proto::epoch_update>& out) {
  return log_.pull(since_seq, max_records, out);
}

bool leader::snapshot(std::uint64_t offset, std::string& data,
                      std::uint64_t& total, bool& last) {
  std::lock_guard lock(snap_mu_);
  return serve_snapshot(*coordinator_, log_.last_seq(), snap_cache_, offset,
                        data, total, last);
}

std::uint64_t leader::apply(std::span<const proto::epoch_update> updates) {
  (void)updates;
  return 0;
}

follower::follower(core::sharded_coordinator& coord, std::size_t log_capacity,
                   core::durable_log* wal)
    : coordinator_(&coord), log_(log_capacity, wal) {}

follower::~follower() {
  if (promoted_.load(std::memory_order_acquire)) {
    coordinator_->set_epoch_tap(nullptr);
  }
}

bool follower::pull(std::uint64_t since_seq, std::uint32_t max_records,
                    std::vector<proto::epoch_update>& out) {
  return log_.pull(since_seq, max_records, out);
}

bool follower::snapshot(std::uint64_t offset, std::string& data,
                        std::uint64_t& total, bool& last) {
  std::lock_guard lock(apply_mu_);
  const std::uint64_t fence = std::max(
      applied_seq_.load(std::memory_order_acquire), log_.last_seq());
  return serve_snapshot(*coordinator_, fence, snap_cache_, offset, data, total,
                        last);
}

std::uint64_t follower::apply(std::span<const proto::epoch_update> updates) {
  std::lock_guard lock(apply_mu_);
  auto& m = metrics();
  std::uint64_t applied = 0;
  std::uint64_t cursor = applied_seq_.load(std::memory_order_relaxed);
  for (const auto& u : updates) {
    // The cursor is the dedup key: a retried or replayed batch re-sends
    // records the replica has already applied, and applying a frozen
    // epoch twice would double-count its samples.
    if (u.seq != 0 && u.seq <= cursor) {
      m.duplicates.inc();
      continue;
    }
    const bool was_merge = coordinator_->apply_epoch(u.key(), u.estimate());
    m.applied.inc();
    if (was_merge) m.merged.inc();
    ++applied;
    if (u.seq > cursor) cursor = u.seq;
  }
  applied_seq_.store(cursor, std::memory_order_release);
  return applied;
}

bool follower::promote() {
  std::lock_guard lock(apply_mu_);
  if (promoted_.load(std::memory_order_relaxed)) return false;
  // Continue the leader's sequencing: a peer whose pull cursor is the old
  // leader's seq N keeps pulling from N here without a gap or an overlap.
  log_.reset(applied_seq_.load(std::memory_order_relaxed) + 1);
  coordinator_->set_epoch_tap(&log_);
  promoted_.store(true, std::memory_order_release);
  metrics().promotions.inc();
  return true;
}

std::optional<std::uint64_t> follower::poll(const transport& send) {
  // The scenario's stalled-replica-link model: skip this round entirely;
  // the next poll's cursor pulls everything missed (staleness grows,
  // nothing is lost).
  if (core::fault::fire(core::fault::site::replica_lag) ==
      core::fault::action::fail) {
    metrics().lag_skips.inc();
    return 0;
  }
  std::uint64_t applied = 0;
  for (;;) {
    v3::epoch_pull p;
    p.since_seq = applied_seq();
    p.max_records = static_cast<std::uint32_t>(v3::max_epoch_batch);
    const std::string reply = send(v3::encode_epoch_pull_frame(p));
    const auto hdr = v3::peek_header(reply);
    if (!hdr) {
      throw std::runtime_error("replication pull: malformed reply frame");
    }
    if (hdr->op == v3::opcode::err) {
      const auto err = v3::decode_error_frame(reply);
      if (err.code == proto::err_code::stopped) return std::nullopt;
      throw std::runtime_error("replication pull failed: " + err.detail);
    }
    const auto updates = v3::decode_epoch_batch_frame(reply);
    applied += apply(updates);
    // A short batch means the stream is drained through the leader's
    // current tail; a full one may have more behind it.
    if (updates.size() < v3::max_epoch_batch) return applied;
  }
}

void follower::catch_up(const transport& send) {
  std::string snap;
  std::uint64_t offset = 0;
  for (;;) {
    const std::string reply = send(v3::encode_snapshot_req_frame(offset));
    const auto hdr = v3::peek_header(reply);
    if (!hdr) {
      throw std::runtime_error("replication catch-up: malformed reply frame");
    }
    if (hdr->op == v3::opcode::err) {
      const auto err = v3::decode_error_frame(reply);
      throw std::runtime_error("replication catch-up failed: " + err.detail);
    }
    const auto chunk = v3::decode_snapshot_chunk_frame(reply);
    if (chunk.offset != offset) {
      throw std::runtime_error("replication catch-up: offset mismatch");
    }
    snap.append(chunk.data);
    offset += chunk.data.size();
    if (chunk.last) break;
    if (chunk.data.empty()) {
      throw std::runtime_error("replication catch-up: empty non-final chunk");
    }
  }
  // The snapshot header's fence is the log sequence it covers: pulling
  // resumes right after it.
  std::lock_guard lock(apply_mu_);
  applied_seq_.store(core::decode_snapshot(snap, *coordinator_),
                     std::memory_order_release);
}

}  // namespace wiscape::repl
