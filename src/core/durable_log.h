// Crash-consistent WAL/snapshot persistence pair.
//
// core::persist's one-shot snapshots lose everything since the last save
// when the process dies; replicated serving needs recovery that is
// O(epochs-since-snapshot), not O(lost-work). The pair:
//
//  * Snapshot -- core/persist.h's fenced snapshot, written to
//    `<dir>/snapshot.tmp`, fsynced, renamed to `<dir>/snapshot`, and made
//    durable by an fsync of `<dir>`. A crash mid-checkpoint leaves the
//    previous snapshot intact (the snapshot_torn fault site models it).
//  * WAL -- "WISCAPE-WAL v2\n", then one record per frozen epoch, appended
//    and flushed to the OS (not fsynced) as rollovers happen:
//    `u32 len | core::epoch_record | u32 fnv1a32(len | record)`. A torn
//    tail -- a cut at any byte, bit rot, a length no record can have -- is
//    detected, and recovery stops at the last complete record instead of
//    crashing or replaying garbage (counted in core.persist.wal_truncated).
//
// Recovery = load the snapshot, then replay WAL records above its fence.
// The fence is the highest sequence the log has recovered or been asked to
// append, so a crash between a checkpoint's rename and its WAL reset
// leaves records the replay skips instead of applying twice.
//
// Only *frozen* epochs ride the WAL (they are the immutable replication
// unit); open-epoch Welford accumulators are carried by snapshots alone,
// exactly like the replication stream itself -- a follower rebuilds open
// epochs from client-assisted replay, not from the log.
//
// The stream-level primitives (wal_append_record / wal_replay) are exposed
// for tests and for anything that ships WAL bytes over a transport; the
// durable_log class manages the on-disk pair and is thread-safe (appends
// come from sharded drain workers via the leader's epoch tap).
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>

#include "core/zone_table.h"

namespace wiscape::core {

class sharded_coordinator;

/// Writes the WAL header line ("WISCAPE-WAL v2").
void wal_write_header(std::ostream& os);

/// Appends one checksummed epoch record. Honours the `wal_append` fault
/// site: an injected fault throws std::runtime_error before anything is
/// written (counted in core.persist.wal_append_failures), so the log tail
/// stays exactly the previous record -- a full-disk model.
void wal_append_record(std::ostream& os, std::uint64_t seq,
                       const estimate_key& key, const epoch_estimate& est);

/// Replays a WAL stream: `apply(seq, key, est)` per complete, checksum-
/// valid record with seq > `fence`, in file order (records at or below the
/// fence are already in the snapshot and are skipped). Recovery is tolerant
/// of torn tails -- a truncated or corrupt record stops replay at the last
/// good record, counts core.persist.wal_truncated once, and returns
/// normally; it never throws on damage and never applies a damaged record.
/// Returns the highest sequence number applied (0 = none).
std::uint64_t wal_replay(
    std::istream& is, std::uint64_t fence,
    const std::function<void(std::uint64_t, const estimate_key&,
                             const epoch_estimate&)>& apply);

/// The on-disk pair: `<dir>/snapshot` + `<dir>/wal`. `dir` must exist.
class durable_log {
 public:
  explicit durable_log(std::string dir);

  /// Loads the snapshot (if present) into `coord`, then replays the WAL
  /// records above its fence through restore_estimate(). Returns the
  /// highest sequence the recovered state covers: max(snapshot fence, last
  /// replayed seq), 0 for an empty pair. Call on a freshly constructed
  /// coordinator, before any ingest. Throws std::invalid_argument when the
  /// snapshot itself is damaged.
  std::uint64_t recover(sharded_coordinator& coord);

  /// Appends one frozen epoch to the WAL and flushes it to the OS. Safe
  /// from any thread (the leader's epoch tap calls this from drain
  /// workers). `seq` raises the next checkpoint's fence even when the write
  /// fails: the epoch is in the coordinator's state either way. The WAL
  /// stream opens on the first append (writing the header only when the
  /// file is new or empty) and stays open; a failed write closes it, so the
  /// next append reopens. Propagates the wal_append fault's throw.
  void append(std::uint64_t seq, const estimate_key& key,
              const epoch_estimate& est);

  /// Checkpoints `coord`: snapshot.tmp -> fsync -> rename -> fsync(dir) ->
  /// WAL reset. Quiesce producers first. On failure -- including an
  /// injected snapshot_torn fault, which leaves a truncated temp file
  /// behind -- throws without touching the WAL (and, before the rename,
  /// the previous snapshot). A successful checkpoint closes the WAL
  /// stream, resets the file to its header and reopens it.
  void checkpoint(const sharded_coordinator& coord);

  const std::string& snapshot_path() const noexcept { return snapshot_path_; }
  const std::string& wal_path() const noexcept { return wal_path_; }

 private:
  std::string dir_;
  std::string snapshot_path_;
  std::string wal_path_;
  std::mutex mu_;  // serialises append vs checkpoint on the wal file
  std::ofstream wal_;  // the open WAL stream (guarded by mu_)
  std::uint64_t last_seq_ = 0;  // highest seq recovered or appended (mu_)
};

}  // namespace wiscape::core
