#include "core/report_queue.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/fault_injection.h"
#include "obs/names.h"
#include "obs/registry.h"

namespace wiscape::core {

namespace {

/// Scenario seam at the producer edge (core::fault site queue_push).
/// Returns true when an injected fault should make this push take its
/// natural failure path -- exactly the path a full/closed queue takes, so
/// callers' drop accounting is exercised for real. A stall sleeps briefly
/// (timing-only) and then proceeds. Un-hooked cost: one relaxed load.
bool push_fault_fails() {
  switch (fault::fire(fault::site::queue_push)) {
    case fault::action::fail:
      return true;
    case fault::action::stall:
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return false;
    case fault::action::proceed:
      break;
  }
  return false;
}
// Process-wide queue metrics, shared by every report_queue instance (the
// registry aggregates; per-shard detail lives in sharded_coordinator's
// per-shard counters). Looked up once. The enqueue-side totals are staged
// as plain fields under the queue mutex and published here in batches --
// see publish_metrics_locked() -- so a push performs no atomic RMW beyond
// the lock it already takes.
struct queue_metrics {
  obs::counter& enqueued;
  obs::counter& dequeued;
  obs::counter& rejected;
  obs::counter& blocked;
  obs::gauge& high_water;
};

queue_metrics& metrics() {
  auto& reg = obs::registry::global();
  static queue_metrics m{reg.get_counter(obs::names::kQueueEnqueued),
                         reg.get_counter(obs::names::kQueueDequeued),
                         reg.get_counter(obs::names::kQueueRejected),
                         reg.get_counter(obs::names::kQueueBlockedProducers),
                         reg.get_gauge(obs::names::kQueueHighWater)};
  return m;
}
}  // namespace

report_queue::report_queue(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("report_queue capacity must be > 0");
  }
  slots_.resize(capacity_);
  (void)metrics();  // force registration before any concurrent use
}

void report_queue::publish_metrics_locked() {
  if (enq_count_ > enq_published_) {
    metrics().enqueued.inc(enq_count_ - enq_published_);
    enq_published_ = enq_count_;
    metrics().high_water.record_max(high_water_);
  }
}

void report_queue::put_locked(const trace::measurement_record& rec) {
  std::size_t tail = head_ + count_;
  if (tail >= capacity_) tail -= capacity_;
  slots_[tail] = rec;  // copy-assign: the slot's strings keep their storage
  ++count_;
  // Hot path: stage the metric updates as plain writes under the lock we
  // already hold; pop_batch/close publish them to the registry in batches.
  ++enq_count_;
  high_water_ = std::max(high_water_, static_cast<std::int64_t>(count_));
}

std::size_t report_queue::push(
    std::span<const trace::measurement_record> recs,
    std::span<const std::uint32_t> route, std::uint32_t lane) {
  const std::size_t n =
      route.empty() ? recs.size()
                    : static_cast<std::size_t>(
                          std::count(route.begin(), route.end(), lane));
  if (n == 0) return 0;
  // The fault fires once per call, before anything is enqueued: a refused
  // call is all-or-nothing, so wire-level accounting (one ERR covers the
  // whole REPORTB frame) never half-ingests a frame.
  if (push_fault_fails()) {
    metrics().rejected.inc(n);
    return 0;
  }
  std::unique_lock lock(mu_);
  std::size_t i = 0;     // records enqueued
  std::size_t next = 0;  // index of the next candidate in recs
  for (;;) {
    while (!closed_ && i < n && count_ < capacity_) {
      if (!route.empty()) {
        while (route[next] != lane) ++next;
      }
      put_locked(recs[next++]);
      ++i;
    }
    depth_.store(count_, std::memory_order_relaxed);
    if (closed_ || i == n) break;
    // Queue full: wake consumers so they can make room, then wait
    // (backpressure).
    metrics().blocked.inc();
    not_empty_.notify_all();
    not_full_.wait(lock, [this] { return count_ < capacity_ || closed_; });
  }
  lock.unlock();
  if (i > 0) not_empty_.notify_all();
  if (i < n) metrics().rejected.inc(n - i);
  return i;
}

std::size_t report_queue::pop_batch(std::vector<trace::measurement_record>& out,
                                    std::size_t max_batch) {
  std::unique_lock lock(mu_);
  not_empty_.wait(lock, [this] { return count_ > 0 || closed_; });
  const std::size_t n = std::min(max_batch, count_);
  for (std::size_t k = 0; k < n; ++k) {
    out.push_back(std::move(slots_[head_]));
    if (++head_ == capacity_) head_ = 0;
  }
  count_ -= n;
  depth_.store(count_, std::memory_order_relaxed);
  publish_metrics_locked();
  lock.unlock();
  if (n > 0) {
    not_full_.notify_all();
    metrics().dequeued.inc(n);
  }
  return n;
}

void report_queue::close() {
  {
    std::lock_guard lock(mu_);
    closed_ = true;
    publish_metrics_locked();
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

}  // namespace wiscape::core
