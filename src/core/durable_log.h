// Crash-consistent WAL/snapshot persistence pair (ISSUE 10).
//
// core::persist's one-shot snapshots lose everything since the last save
// when the process dies; the replication tentpole needs recovery that is
// O(epochs-since-snapshot), not O(lost-work). The pair:
//
//  * Snapshot -- the full durable_state rendered by core::persist
//    (save_state), written to `<dir>/snapshot.tmp` and atomically renamed
//    to `<dir>/snapshot`, so a crash mid-checkpoint always leaves the
//    previous snapshot intact (the snapshot_torn fault site models exactly
//    that crash).
//  * WAL -- one line per frozen epoch appended (and flushed) as rollovers
//    happen: `W <seq> <zone> <network> <metric> <epoch_start> <mean>
//    <stddev> <n> C<fnv1a32>`, doubles at %.17g so replay is bit-exact.
//    The trailing checksum covers the whole body, so a torn tail -- a cut
//    at any byte, mid-record or mid-checksum -- is detected and recovery
//    stops at the last complete record instead of crashing or replaying
//    garbage (counted in core.persist.wal_truncated).
//
// Recovery = load snapshot (if any) + replay WAL records after it. A
// checkpoint truncates the WAL only after the renamed snapshot is on disk,
// so every epoch is always covered by at least one of the two files.
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

#include "core/durable_state.h"

namespace wiscape::core {

/// Writes the WAL header line ("WISCAPE-WAL v1").
void wal_write_header(std::ostream& os);

/// Appends one checksummed epoch record. Honours the `wal_append` fault
/// site: an injected fault throws std::runtime_error before anything is
/// written (counted in core.persist.wal_append_failures), so the log tail
/// stays exactly the previous record -- a full-disk model.
void wal_append_record(std::ostream& os, std::uint64_t seq,
                       const estimate_key& key, const epoch_estimate& est);

/// Replays a WAL stream: `apply(seq, key, est)` per complete, checksum-
/// valid record, in file order. Recovery is tolerant of torn tails -- a
/// truncated or corrupt record (or a cut mid-line) stops replay at the
/// last good record, counts core.persist.wal_truncated once, and returns
/// normally; it never throws on damage and never applies a damaged
/// record. Returns the highest sequence number applied (0 = none).
std::uint64_t wal_replay(
    std::istream& is,
    const std::function<void(std::uint64_t, const estimate_key&,
                             const epoch_estimate&)>& apply);

/// The on-disk pair: `<dir>/snapshot` + `<dir>/wal`. `dir` must exist.
class durable_log {
 public:
  explicit durable_log(std::string dir);

  /// Loads the snapshot (if present) into `state`, then replays WAL
  /// records through state.restore_estimate(). Returns the highest WAL
  /// sequence applied (0 = none). Call on a freshly constructed
  /// coordinator, before any ingest.
  std::uint64_t recover(durable_state& state);

  /// Appends one frozen epoch to the WAL and flushes it to the OS. Safe
  /// from any thread (the leader's epoch tap calls this from drain
  /// workers). The WAL stream opens on the first append (writing the
  /// header only when the file is new or empty) and stays open; a failed
  /// write closes it, so the next append reopens. Propagates the
  /// wal_append fault's throw.
  void append(std::uint64_t seq, const estimate_key& key,
              const epoch_estimate& est);

  /// Checkpoints `state`: snapshot.tmp -> rename -> WAL reset. Quiesce
  /// producers first (the state walk is the same one save_state does). On
  /// failure -- including an injected snapshot_torn fault, which leaves a
  /// truncated temp file behind -- throws without touching the previous
  /// snapshot or the WAL. A successful checkpoint closes the WAL stream,
  /// resets the file to its header and reopens it.
  void checkpoint(const durable_state& state);

  const std::string& snapshot_path() const noexcept { return snapshot_path_; }
  const std::string& wal_path() const noexcept { return wal_path_; }

 private:
  std::string dir_;
  std::string snapshot_path_;
  std::string wal_path_;
  std::mutex mu_;  // serialises append vs checkpoint on the wal file
  std::ofstream wal_;  // the open WAL stream (guarded by mu_)
};

}  // namespace wiscape::core
