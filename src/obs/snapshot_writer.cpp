#include "obs/snapshot_writer.h"

#include <stdexcept>

namespace wiscape::obs {

void write_snapshot_json(std::ostream& os, const registry& reg,
                         std::uint64_t seq, double uptime_s) {
  const auto samples = reg.snapshot();
  os << "{\"seq\":" << seq << ",\"uptime_s\":";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", uptime_s);
  os << buf << ",\"metrics\":{";
  bool first = true;
  for (const auto& s : samples) {
    if (!first) os << ',';
    first = false;
    os << '"' << s.name << "\":" << format_value(s);
  }
  os << "}}\n";
}

snapshot_writer::snapshot_writer(const std::string& path,
                                 std::chrono::milliseconds interval,
                                 registry& reg)
    : reg_(reg),
      out_(path, std::ios::app),
      interval_(interval),
      start_(std::chrono::steady_clock::now()) {
  if (!out_) {
    throw std::runtime_error("snapshot_writer: cannot open '" + path + "'");
  }
  thread_ = std::thread([this] { run(); });
}

snapshot_writer::~snapshot_writer() { stop(); }

void snapshot_writer::run() {
  std::unique_lock lock(mu_);
  for (;;) {
    if (cv_.wait_for(lock, interval_, [this] { return stopping_; })) return;
    write_one();
  }
}

void snapshot_writer::write_one() {
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  write_snapshot_json(out_, reg_,
                      written_.fetch_add(1, std::memory_order_relaxed), uptime);
  out_.flush();
}

void snapshot_writer::stop() {
  {
    std::lock_guard lock(mu_);
    if (stopped_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard lock(mu_);
  if (!stopped_) {
    write_one();  // final snapshot: short-lived runs still record something
    stopped_ = true;
  }
}

}  // namespace wiscape::obs
