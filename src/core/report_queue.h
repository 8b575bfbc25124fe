// A bounded MPMC queue of measurement reports.
//
// The concurrent ingestion pipeline (sharded_coordinator) decouples the
// threads that *receive* reports from the threads that *apply* them to the
// zone tables. This queue is the hand-off point: any number of producers
// block-push completed measurement_records, any number of consumers drain
// them in batches. Bounded capacity gives natural backpressure -- a server
// flooded faster than it can ingest slows its transports down instead of
// growing without limit.
//
// Storage: a ring of `capacity` record slots, allocated once at
// construction (capacity x sizeof(measurement_record), 168 B on LP64 --
// about 688 KiB at the default 4096). A push copy-assigns into a free slot,
// so the slot's strings reuse their storage (operator names ride SSO) and
// the producer allocates nothing; pop_batch moves records out. Head and
// count live under the queue mutex.
//
// Ordering guarantee: items from one producer thread are dequeued in the
// order that producer pushed them (global FIFO over all successfully
// completed pushes; per-producer order is a corollary). With a single
// consumer per queue this preserves the per-zone sample order the
// zone_table's epoch rollover logic depends on.
//
// Observability: every queue contributes to the process-wide
// `core.report_queue.*` metrics (see src/obs/names.h and DESIGN.md). The
// per-push bookkeeping is plain arithmetic under the queue mutex the push
// already holds; totals are published to the obs registry in batches -- at
// every pop_batch() and at close() -- so the hot path adds no atomic RMW.
// Snapshots taken mid-run may therefore lag by up to one drain batch; they
// are exact whenever the queue is quiescent (drained or closed). size() is
// lock-free: it reads a relaxed mirror of the count, stored under the lock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "trace/record.h"

namespace wiscape::core {

class report_queue {
 public:
  /// Throws std::invalid_argument if capacity == 0.
  explicit report_queue(std::size_t capacity);

  report_queue(const report_queue&) = delete;
  report_queue& operator=(const report_queue&) = delete;

  /// Enqueues the records of `recs` whose `route[i] == lane` (the spans are
  /// parallel), or every record when `route` is empty: a router's
  /// per-destination hand-off, copying each record once from the caller's
  /// buffer into a slot. One lock acquisition and one metrics delta per
  /// call, blocking while the queue is full -- more records than the
  /// remaining capacity are fed in capacity-sized gulps as consumers make
  /// room. The records land contiguous in FIFO order (no other producer's
  /// records interleave within one gulp). Returns the number of records
  /// enqueued: all of them on success, fewer when the queue is closed
  /// mid-call (the remainder is dropped), or 0 when an injected fault fires
  /// at the core::fault queue_push site (scenario fault storms; the fault
  /// refuses the call whole, before anything is enqueued). Returns 0
  /// without locking (or firing the fault) when no record is selected.
  /// Callers must count the shortfall against their drop accounting.
  std::size_t push(std::span<const trace::measurement_record> recs,
                   std::span<const std::uint32_t> route = {},
                   std::uint32_t lane = 0);

  /// Pops up to `max_batch` records into `out` (appended), blocking until at
  /// least one record is available or the queue is closed. Returns the
  /// number popped; 0 only after close() with the queue fully drained.
  std::size_t pop_batch(std::vector<trace::measurement_record>& out,
                        std::size_t max_batch);

  /// Closes the queue: pending and future pushes fail, consumers drain the
  /// remaining items and then see 0 from pop_batch. Idempotent.
  void close();

  std::size_t capacity() const noexcept { return capacity_; }
  /// Records enqueued, not yet popped. Lock-free (may lag a concurrent
  /// push or pop by that one operation).
  std::size_t size() const noexcept {
    return depth_.load(std::memory_order_relaxed);
  }

 private:
  /// Pushes any un-published enqueue/high-water totals into the obs
  /// registry. Must be called with mu_ held; cheap when nothing is pending.
  void publish_metrics_locked();
  /// Copies `rec` into the slot after the tail. Call with mu_ held and a
  /// free slot.
  void put_locked(const trace::measurement_record& rec);

  const std::size_t capacity_;
  std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<trace::measurement_record> slots_;  ///< the ring, capacity_ long
  std::size_t head_ = 0;   ///< slot of the oldest record; guarded by mu_
  std::size_t count_ = 0;  ///< records in the ring; guarded by mu_
  std::atomic<std::size_t> depth_{0};  ///< count_'s lock-free mirror
  bool closed_ = false;
  // Metric staging, guarded by mu_: counted per push with plain arithmetic,
  // flushed to the (atomic) obs registry counters at batch boundaries.
  std::uint64_t enq_count_ = 0;      ///< successful pushes, lifetime total
  std::uint64_t enq_published_ = 0;  ///< portion already in the registry
  std::int64_t high_water_ = 0;      ///< deepest count_ seen
};

}  // namespace wiscape::core
