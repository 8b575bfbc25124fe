#include "core/durable_log.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/fault_injection.h"
#include "core/persist.h"
#include "obs/names.h"
#include "obs/registry.h"

namespace wiscape::core {

namespace {

constexpr char kWalHeader[] = "WISCAPE-WAL v1";

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

// FNV-1a over the record body: cheap, dependency-free, and plenty to tell
// "record the writer finished" from "record the crash cut" -- the torn-tail
// corpus in tests/wal_test.cpp cuts at every byte offset.
std::uint32_t fnv1a32(std::string_view s) noexcept {
  std::uint32_t h = 2166136261u;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 16777619u;
  }
  return h;
}

geo::zone_id parse_zone(const std::string& s) {
  const auto colon = s.find(':');
  if (colon == std::string::npos) {
    throw std::invalid_argument("bad zone id '" + s + "'");
  }
  return {std::stoi(s.substr(0, colon)), std::stoi(s.substr(colon + 1))};
}

/// Renders the checksummed part of a WAL record (no trailing checksum).
std::string render_body(std::uint64_t seq, const estimate_key& key,
                        const epoch_estimate& est) {
  char buf[320];
  std::snprintf(buf, sizeof(buf), "W %llu %s %s %s %.17g %.17g %.17g %zu",
                static_cast<unsigned long long>(seq),
                geo::to_string(key.zone).c_str(), key.network.c_str(),
                trace::to_string(key.metric).c_str(), est.epoch_start_s,
                est.mean, est.stddev, est.samples);
  return buf;
}

/// Parses one complete line (checksum already stripped and verified).
/// Returns false on any malformation -- the caller treats that as a torn
/// tail, never as fatal.
bool parse_body(const std::string& body, std::uint64_t& seq,
                estimate_key& key, epoch_estimate& est) {
  std::istringstream ls(body);
  std::string tag, zone_s, net, metric_s;
  unsigned long long s = 0;
  if (!(ls >> tag >> s >> zone_s >> net >> metric_s) || tag != "W") {
    return false;
  }
  if (!(ls >> est.epoch_start_s >> est.mean >> est.stddev >> est.samples)) {
    return false;
  }
  try {
    key.zone = parse_zone(zone_s);
    key.metric = trace::metric_from_string(metric_s);
  } catch (const std::exception&) {
    return false;
  }
  key.network = net;
  seq = s;
  return true;
}

}  // namespace

void wal_write_header(std::ostream& os) { os << kWalHeader << "\n"; }

void wal_append_record(std::ostream& os, std::uint64_t seq,
                       const estimate_key& key, const epoch_estimate& est) {
  if (fault::fire(fault::site::wal_append) == fault::action::fail) {
    metrics().append_failures.inc();
    throw std::runtime_error("injected fault: WAL append refused");
  }
  const std::string body = render_body(seq, key, est);
  char crc[16];
  std::snprintf(crc, sizeof(crc), " C%08x\n", fnv1a32(body));
  os << body << crc;
  metrics().appends.inc();
}

std::uint64_t wal_replay(
    std::istream& is,
    const std::function<void(std::uint64_t, const estimate_key&,
                             const epoch_estimate&)>& apply) {
  // Slurp the stream: a WAL is bounded by the last checkpoint, and whole-
  // buffer scanning lets a missing final newline (the classic torn tail)
  // be distinguished from a complete final record.
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string all = buf.str();
  std::uint64_t last_seq = 0;
  bool torn = false;
  std::size_t pos = 0;
  bool saw_header = false;
  while (pos < all.size()) {
    const std::size_t nl = all.find('\n', pos);
    if (nl == std::string::npos) {
      torn = true;  // trailing bytes without a newline: the cut record
      break;
    }
    const std::string line = all.substr(pos, nl - pos);
    pos = nl + 1;
    if (!saw_header) {
      if (line != kWalHeader) {
        torn = true;  // even the header is damaged: nothing to replay
        break;
      }
      saw_header = true;
      continue;
    }
    if (line.empty()) continue;
    // Split off and verify the checksum; any mismatch (cut mid-record,
    // bit rot, a record the writer never finished) ends the valid prefix.
    const std::size_t cpos = line.rfind(" C");
    if (cpos == std::string::npos || line.size() - cpos != 10) {
      torn = true;
      break;
    }
    const std::string body = line.substr(0, cpos);
    const unsigned long expect = std::stoul(line.substr(cpos + 2), nullptr, 16);
    if (fnv1a32(body) != static_cast<std::uint32_t>(expect)) {
      torn = true;
      break;
    }
    std::uint64_t seq = 0;
    estimate_key key;
    epoch_estimate est;
    if (!parse_body(body, seq, key, est)) {
      torn = true;
      break;
    }
    apply(seq, key, est);
    last_seq = seq;
    metrics().replayed.inc();
  }
  if (torn) metrics().truncated.inc();
  return last_seq;
}

durable_log::durable_log(std::string dir)
    : dir_(std::move(dir)),
      snapshot_path_(dir_ + "/snapshot"),
      wal_path_(dir_ + "/wal") {}

std::uint64_t durable_log::recover(durable_state& state) {
  std::lock_guard lock(mu_);
  {
    std::ifstream snap(snapshot_path_);
    if (snap) load_state(snap, state);
  }
  std::ifstream wal(wal_path_);
  if (!wal) return 0;
  return wal_replay(wal, [&](std::uint64_t, const estimate_key& key,
                             const epoch_estimate& est) {
    state.restore_estimate(key, est);
  });
}

void durable_log::append(std::uint64_t seq, const estimate_key& key,
                         const epoch_estimate& est) {
  std::lock_guard lock(mu_);
  // The stream stays open across appends: opening and closing the file per
  // record cost several times the write and flush themselves, and appends
  // run from drain workers holding their shard's lock. The flush below
  // still hands every record to the OS before append returns.
  if (!wal_.is_open()) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(wal_path_, ec);
    wal_.open(wal_path_, std::ios::app);
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

void durable_log::checkpoint(const durable_state& state) {
  std::lock_guard lock(mu_);
  const std::string tmp = snapshot_path_ + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) throw std::runtime_error("cannot open snapshot: " + tmp);
    if (fault::fire(fault::site::snapshot_torn) == fault::action::fail) {
      // Model the crash mid-checkpoint: leave a truncated temp file (a
      // header with no body) and abort before the rename, so recovery
      // still sees the previous snapshot + the intact WAL.
      os << "WISCAPE-CO";
      os.flush();
      metrics().snapshot_failures.inc();
      throw std::runtime_error("injected fault: snapshot checkpoint torn");
    }
    save_state(os, state);
    os.flush();
    if (!os) {
      metrics().snapshot_failures.inc();
      throw std::runtime_error("snapshot write failed: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), snapshot_path_.c_str()) != 0) {
    metrics().snapshot_failures.inc();
    throw std::runtime_error("snapshot rename failed: " + snapshot_path_);
  }
  // The snapshot now covers everything; reset the WAL to just its header
  // and keep the reset stream open for the appends that follow.
  wal_.close();
  wal_.open(wal_path_, std::ios::trunc);
  if (wal_) {
    wal_write_header(wal_);
    wal_.flush();
  }
  if (!wal_) wal_.close();  // the next append reopens (and re-heads) it
  metrics().snapshots.inc();
}

}  // namespace wiscape::core
