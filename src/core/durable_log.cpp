#include "core/durable_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/epoch_record.h"
#include "core/fault_injection.h"
#include "core/persist.h"
#include "core/sharded_coordinator.h"
#include "obs/names.h"
#include "obs/registry.h"

namespace wiscape::core {

namespace {

constexpr std::string_view kWalHeader = "WISCAPE-WAL v2\n";

struct wal_metrics {
  obs::counter& appends;
  obs::counter& append_failures;
  obs::counter& truncated;
  obs::counter& replayed;
  obs::counter& snapshots;
  obs::counter& snapshot_failures;
};

wal_metrics& metrics() {
  auto& reg = obs::registry::global();
  static wal_metrics m{
      reg.get_counter(obs::names::kPersistWalAppends),
      reg.get_counter(obs::names::kPersistWalAppendFailures),
      reg.get_counter(obs::names::kPersistWalTruncated),
      reg.get_counter(obs::names::kPersistWalReplayed),
      reg.get_counter(obs::names::kPersistSnapshots),
      reg.get_counter(obs::names::kPersistSnapshotFailures)};
  return m;
}

/// Closes a POSIX file descriptor on scope exit. Callers fsync what they
/// wrote, so close() has no write error left to report.
struct fd_guard {
  int fd;
  explicit fd_guard(int f) noexcept : fd(f) {}
  ~fd_guard() {
    if (fd >= 0) ::close(fd);
  }
  fd_guard(const fd_guard&) = delete;
  fd_guard& operator=(const fd_guard&) = delete;
};

bool write_all(int fd, std::string_view bytes) noexcept {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// Decodes the WAL record at `in`'s cursor. False on any damage -- a cut
/// mid-record, a length no record can have, bit rot, a record the writer
/// never finished -- which ends the valid prefix. The length is checked
/// against one record's maximum and the bytes present before it is used.
bool read_record(byte_reader& in, epoch_record& rec) {
  if (in.left() < 4) return false;
  const std::size_t start = in.pos;
  const std::size_t len = in.u32_raw();
  if (len < min_epoch_record_bytes || len > max_epoch_record_bytes ||
      in.left() < len + 4) {
    return false;
  }
  const std::string_view framed = in.buf.substr(start, 4 + len);
  in.pos += len;
  if (in.u32_raw() != fnv1a32(framed)) return false;
  byte_reader body{framed, 4};
  try {
    get_epoch_record(body, rec);
  } catch (const std::invalid_argument&) {
    return false;
  }
  return body.done();
}

[[noreturn]] void snapshot_failed(const std::string& what) {
  metrics().snapshot_failures.inc();
  throw std::runtime_error(what);
}

}  // namespace

void wal_write_header(std::ostream& os) { os << kWalHeader; }

void wal_append_record(std::ostream& os, std::uint64_t seq,
                       const estimate_key& key, const epoch_estimate& est) {
  if (fault::fire(fault::site::wal_append) == fault::action::fail) {
    metrics().append_failures.inc();
    throw std::runtime_error("injected fault: WAL append refused");
  }
  std::string rec(4, '\0');  // length prefix, patched once the record is in
  put_epoch_record(rec, epoch_record::of(seq, key, est));
  const auto len = static_cast<std::uint32_t>(rec.size() - 4);
  for (std::size_t i = 0; i < 4; ++i) {
    rec[i] = static_cast<char>(len >> (8 * i));
  }
  put_u32(rec, fnv1a32(rec));
  os.write(rec.data(), static_cast<std::streamsize>(rec.size()));
  metrics().appends.inc();
}

std::uint64_t wal_replay(
    std::istream& is, std::uint64_t fence,
    const std::function<void(std::uint64_t, const estimate_key&,
                             const epoch_estimate&)>& apply) {
  // Slurp the stream: a WAL is bounded by the last checkpoint, and a
  // whole-buffer scan checks each record's length against the bytes
  // actually present before touching it.
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string_view all = buf.view();
  if (all.empty()) return 0;
  if (!all.starts_with(kWalHeader)) {
    metrics().truncated.inc();  // even the header is damaged
    return 0;
  }
  byte_reader in{all, kWalHeader.size()};
  epoch_record rec;
  std::uint64_t last_seq = 0;
  while (!in.done()) {
    if (!read_record(in, rec)) {
      metrics().truncated.inc();
      break;
    }
    if (rec.seq <= fence) continue;
    apply(rec.seq, rec.key(), rec.estimate());
    last_seq = rec.seq;
    metrics().replayed.inc();
  }
  return last_seq;
}

durable_log::durable_log(std::string dir)
    : dir_(std::move(dir)),
      snapshot_path_(dir_ + "/snapshot"),
      wal_path_(dir_ + "/wal") {}

std::uint64_t durable_log::recover(sharded_coordinator& coord) {
  std::lock_guard lock(mu_);
  std::uint64_t fence = 0;
  if (std::ifstream snap{snapshot_path_, std::ios::binary}) {
    fence = load_state(snap, coord);
  }
  std::uint64_t replayed = 0;
  if (std::ifstream wal{wal_path_, std::ios::binary}) {
    replayed = wal_replay(wal, fence,
                          [&](std::uint64_t, const estimate_key& key,
                              const epoch_estimate& est) {
                            coord.restore_estimate(key, est);
                          });
  }
  last_seq_ = std::max({last_seq_, fence, replayed});
  return std::max(fence, replayed);
}

void durable_log::append(std::uint64_t seq, const estimate_key& key,
                         const epoch_estimate& est) {
  std::lock_guard lock(mu_);
  last_seq_ = std::max(last_seq_, seq);
  // The stream stays open across appends: opening and closing the file per
  // record cost several times the write and flush themselves, and appends
  // run from drain workers holding their shard's lock. The flush below
  // still hands every record to the OS before append returns.
  if (!wal_.is_open()) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(wal_path_, ec);
    wal_.open(wal_path_, std::ios::app | std::ios::binary);
    if (!wal_) throw std::runtime_error("cannot open WAL: " + wal_path_);
    if (ec || size == 0) wal_write_header(wal_);
  }
  wal_append_record(wal_, seq, key, est);
  wal_.flush();
  if (!wal_) {
    wal_.close();  // reopen on the next append rather than write past a fault
    throw std::runtime_error("WAL append failed: " + wal_path_);
  }
}

void durable_log::checkpoint(const sharded_coordinator& coord) {
  std::lock_guard lock(mu_);
  const std::string tmp = snapshot_path_ + ".tmp";
  const fd_guard fd(
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
  if (fd.fd < 0) throw std::runtime_error("cannot open snapshot: " + tmp);
  if (fault::fire(fault::site::snapshot_torn) == fault::action::fail) {
    // Model the crash mid-checkpoint: leave a truncated temp file (part of
    // the header, no body) and abort before the rename, so recovery still
    // sees the previous snapshot + the intact WAL.
    write_all(fd.fd, "WISCAPE-CO");
    snapshot_failed("injected fault: snapshot checkpoint torn");
  }
  if (!write_all(fd.fd, encode_snapshot(coord, last_seq_)) ||
      ::fsync(fd.fd) != 0) {
    snapshot_failed("snapshot write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), snapshot_path_.c_str()) != 0) {
    snapshot_failed("snapshot rename failed: " + snapshot_path_);
  }
  // The rename is durable only once the directory entry is. Until then the
  // WAL stays as it is: the snapshot's fence makes the overlap harmless.
  const fd_guard dir(::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC));
  if (dir.fd < 0 || ::fsync(dir.fd) != 0) {
    snapshot_failed("snapshot directory fsync failed: " + dir_);
  }
  // The snapshot now covers everything; reset the WAL to just its header
  // and keep the reset stream open for the appends that follow.
  wal_.close();
  wal_.open(wal_path_, std::ios::trunc | std::ios::binary);
  if (wal_) {
    wal_write_header(wal_);
    wal_.flush();
  }
  if (!wal_) wal_.close();  // the next append reopens (and re-heads) it
  metrics().snapshots.inc();
}

}  // namespace wiscape::core
