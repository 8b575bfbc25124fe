// Periodic JSON-lines metric snapshots (`obs::snapshot_writer`).
//
// A background thread samples a registry every `interval` and appends one
// JSON object per line to a file:
//
//   {"seq":3,"uptime_s":1.502,"metrics":{"core.coordinator.checkins":42,...}}
//
// One line per snapshot keeps the file greppable and stream-parseable (the
// same reasoning as the CSV trace format); keys inside "metrics" are sorted
// by name so consecutive lines diff cleanly. A final snapshot is written on
// stop()/destruction, so short-lived processes (benches, examples) always
// leave at least one complete line. The writer never blocks instrumented
// code: it only *reads* relaxed atomics.
#pragma once

#include <chrono>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>

#include "obs/registry.h"

namespace wiscape::obs {

/// Writes one snapshot of `reg` to `os` as a single JSON line (no trailing
/// newline flush semantics beyond '\n'). `seq` and `uptime_s` become the
/// line's header fields. Thread-safe w.r.t. metric writers; serialise
/// concurrent calls on the same stream yourself.
void write_snapshot_json(std::ostream& os, const registry& reg,
                         std::uint64_t seq, double uptime_s);

/// Background periodic snapshot writer. Construction opens (appends to) the
/// file and starts the thread; stop() (idempotent, called by the destructor)
/// writes a final snapshot and joins. Throws std::runtime_error if the file
/// cannot be opened.
class snapshot_writer {
 public:
  snapshot_writer(const std::string& path, std::chrono::milliseconds interval,
                  registry& reg = registry::global());
  ~snapshot_writer();

  snapshot_writer(const snapshot_writer&) = delete;
  snapshot_writer& operator=(const snapshot_writer&) = delete;

  /// Stops the thread after writing one last snapshot. Idempotent.
  void stop();

  /// Snapshot lines written so far (including the final one after stop()).
  std::uint64_t snapshots_written() const noexcept {
    return written_.load(std::memory_order_relaxed);
  }

 private:
  void run();
  void write_one();

  registry& reg_;
  std::ofstream out_;
  std::chrono::milliseconds interval_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<std::uint64_t> written_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool stopped_ = false;
  std::thread thread_;
};

}  // namespace wiscape::obs
