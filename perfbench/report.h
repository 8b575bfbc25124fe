// Result printing: metric values with units, the diagnostics line and the
// host/config fingerprint every result carries.
#pragma once

#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

inline std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

inline std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  out.push_back('"');
  return out;
}

/// An ordered set of named metrics, rendered as
/// {"name": {"value": v, "unit": "u"}, ...}.
struct metric_set {
  struct entry {
    std::string name;
    double value;
    std::string unit;
    std::string extra;  // further ,"key": value pairs
  };
  std::vector<entry> entries;

  void add(std::string name, double value, std::string unit,
           std::string extra = {}) {
    entries.push_back({std::move(name), value, std::move(unit),
                       std::move(extra)});
  }
  std::string json() const {
    std::string s = "{";
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const entry& e = entries[i];
      if (i) s += ", ";
      s += json_str(e.name) + ": {\"value\": " + num(e.value) +
           ", \"unit\": " + json_str(e.unit) + e.extra + "}";
    }
    return s + "}";
  }
};

/// Adds a latency's median (the median over the kept slots of each slot's
/// median, common.h) under `name` and its tail over the whole run (the
/// highest percentile with at least ten samples beyond it) under
/// `tail_name`, both with the sample count, to `main` and `diag`
/// respectively.
inline void add_latency(metric_set& main, metric_set& diag,
                        const std::string& name, const std::string& tail_name,
                        const series& s, const std::vector<char>& keep,
                        const std::string& unit) {
  std::vector<double> v = s.v;
  const std::string n = ", \"samples\": " + std::to_string(v.size());
  const double pct = tail_pct(v.size());
  main.add(name, s.slot_median(keep), unit);
  diag.add(name + "_samples", static_cast<double>(v.size()), "count");
  diag.add(name + "_whole_run", percentile(v, 50), unit);
  diag.add(tail_name, pct > 0 ? percentile(v, pct) : 0.0, unit,
           n + ", \"percentile\": " + num(pct));
}

inline std::string read_first(const std::string& path, const std::string& key) {
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (key.empty()) return line;
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon == std::string::npos) return "";
      std::string v = line.substr(colon + 1);
      v.erase(0, v.find_first_not_of(" \t"));
      return v;
    }
  }
  return "";
}

inline std::string fs_type(const std::string& path) {
  struct statfs sf{};
  if (::statfs(path.c_str(), &sf) != 0) return "unknown";
  switch (static_cast<unsigned long>(sf.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlay";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[24];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(sf.f_type));
      return buf;
    }
  }
}

/// Host and deployment fingerprint: runs compare only when it matches.
inline std::string fingerprint(workload wl, std::uint64_t seed,
                               const std::string& wal_dir_path,
                               std::size_t conns, const rates& r) {
  utsname u{};
  ::uname(&u);
  const std::string flags = read_first("/proc/cpuinfo", "flags");
  std::string hyper = "none";
  if (flags.find(" hypervisor") != std::string::npos ||
      flags.rfind("hypervisor", 0) == 0) {
    hyper = read_first("/sys/hypervisor/type", "");
    if (hyper.empty()) hyper = "present";
  }
  const std::string mtu = read_first("/sys/class/net/lo/mtu", "");
  std::string s = "{";
  s += "\"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  s += ", \"cpu_model\": " +
       json_str(read_first("/proc/cpuinfo", "model name"));
  s += ", \"kernel\": " + json_str(u.release);
  s += ", \"hypervisor\": " + json_str(hyper);
  s += ", \"wal_fs\": " + json_str(fs_type(wal_dir_path));
  s += ", \"loopback\": " + json_str("127.0.0.1 mtu " + mtu);
  s += ", \"build_type\": " + json_str(PERFBENCH_BUILD_TYPE);
  s += ", \"event_loops\": " + std::to_string(kEventLoops);
  s += ", \"shards\": " + std::to_string(kShards);
  s += ", \"queue_capacity\": " + std::to_string(kQueueCapacity);
  s += ", \"drain_batch\": " + std::to_string(kDrainBatch);
  s += ", \"gen_threads\": " + std::to_string(kGenThreads);
  s += ", \"gen_conns\": " + std::to_string(conns);
  s += ", \"workload\": " + json_str(name_of(wl));
  s += ", \"seed\": " + std::to_string(seed);
  s += ", \"rates_per_s\": {\"checkin\": " + num(r.checkin) +
       ", \"report\": " + num(r.report) + ", \"query\": " + num(r.query) +
       ", \"queryb\": " + num(r.queryb) + ", \"probe\": " + num(r.probe) +
       ", \"repl_pull\": " + num(1e9 / kPullPeriodNs) + "}";
  if (wl != workload::fleet_mix) {
    s += ", \"bulk\": {\"conns\": " + std::to_string(kBulkConns) +
         ", \"frames_in_flight\": " + std::to_string(kInFlight) +
         ", \"records_per_frame\": " + std::to_string(kFrameRecs) + "}";
  }
  return s + "}";
}

/// The correctness gate's named checks; any failure fails the run.
struct checks {
  std::vector<std::pair<std::string, bool>> items;
  std::string notes;
  void add(const std::string& name, bool ok, const std::string& why = {}) {
    items.emplace_back(name, ok);
    if (!ok) notes += name + (why.empty() ? "" : ": " + why) + "; ";
  }
  bool ok() const {
    for (const auto& [n, v] : items) {
      if (!v) return false;
    }
    return true;
  }
  std::string json() const {
    std::string s = "{\"notes\": " + json_str(notes);
    for (const auto& [name, v] : items) {
      s += ", " + json_str(name) + ": " + (v ? "true" : "false");
    }
    return s + "}";
  }
};

/// Prints the result object, the last line of stdout.
inline void print_result(bool correct, std::uint64_t attempted,
                         std::uint64_t failed, const metric_set& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.json().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
