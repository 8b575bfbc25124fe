#include "core/persist.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "core/epoch_record.h"
#include "core/fault_injection.h"
#include "core/sharded_coordinator.h"

namespace wiscape::core {

namespace {

constexpr std::string_view kMagic = "WISCAPE-COORD v3\n";

enum entry_tag : std::uint8_t { kEnd = 0, kFrozen = 1, kOpen = 2 };

void put_open(std::string& out, const estimate_key& key,
              const open_epoch_state& st) {
  put_u8(out, kOpen);
  put_i32(out, key.zone.ix);
  put_i32(out, key.zone.iy);
  put_u8(out, static_cast<std::uint8_t>(key.metric));
  put_f64(out, st.open_start_s);
  put_u64(out, st.n);
  put_f64(out, st.mean);
  put_f64(out, st.m2);
  put_str16(out, key.network);
}

void get_open(byte_reader& in, estimate_key& key, open_epoch_state& st) {
  in.need(4 + 4 + 1 + 4 * 8, "open fixed fields");
  key.zone.ix = in.i32_raw();
  key.zone.iy = in.i32_raw();
  key.metric = metric_from_byte(in.u8_raw());
  st.open_start_s = in.f64_raw();
  st.n = in.u64_raw();
  st.mean = in.f64_raw();
  st.m2 = in.f64_raw();
  key.network = in.str16("open.network");
}

/// Walks a checksum-verified body (magic and checksum stripped). With
/// `into` null it only proves the whole body decodes; the restoring pass
/// runs after that, so damage never leaves a half-restored coordinator.
std::uint64_t walk(std::string_view body, sharded_coordinator* into) {
  byte_reader in{body};
  const std::uint64_t fence = in.u64("snapshot.fence");
  epoch_record rec;
  estimate_key key;
  open_epoch_state st;
  for (;;) {
    const std::uint8_t tag = in.u8("snapshot.tag");
    if (tag == kEnd) break;
    if (tag == kFrozen) {
      get_epoch_record(in, rec);
      key = rec.key();
    } else if (tag == kOpen) {
      get_open(in, key, st);
    } else {
      throw std::invalid_argument("bad snapshot entry tag " +
                                  std::to_string(tag));
    }
    if (!zone_table::zone_in_range(key.zone)) {
      throw std::invalid_argument("snapshot zone out of range");
    }
    if (into == nullptr) continue;
    if (tag == kFrozen) {
      into->restore_estimate(key, rec.estimate());
    } else {
      into->restore_open(key, st);
    }
  }
  const std::uint64_t alert_seq = in.u64("snapshot.alert_seq");
  if (!in.done()) {
    throw std::invalid_argument("trailing bytes in coordinator snapshot");
  }
  if (into != nullptr && alert_seq > 0) into->resume_alert_seq(alert_seq);
  return fence;
}

}  // namespace

std::string encode_snapshot(const sharded_coordinator& coord,
                            std::uint64_t fence) {
  if (fault::fire(fault::site::persist_save) == fault::action::fail) {
    throw std::runtime_error("injected fault: coordinator snapshot refused");
  }
  std::string out(kMagic);
  put_u64(out, fence);
  auto keys = coord.keys();
  // Deterministic order: by zone, then network, then metric.
  std::sort(keys.begin(), keys.end(), [](const auto& a, const auto& b) {
    return std::tie(a.zone, a.network, a.metric) <
           std::tie(b.zone, b.network, b.metric);
  });
  for (const auto& key : keys) {
    for (const auto& est : coord.history(key)) {
      put_u8(out, kFrozen);
      put_epoch_record(out, epoch_record::of(0, key, est));
    }
    if (const auto open = coord.open_state(key)) put_open(out, key, *open);
  }
  put_u8(out, kEnd);
  put_u64(out, coord.alert_seq());
  put_u32(out, fnv1a32(out));
  return out;
}

std::uint64_t decode_snapshot(std::string_view bytes,
                              sharded_coordinator& coord) {
  if (bytes.size() < kMagic.size() + 4 || !bytes.starts_with(kMagic)) {
    throw std::invalid_argument("not a coordinator snapshot (bad header)");
  }
  const std::string_view signed_part = bytes.substr(0, bytes.size() - 4);
  byte_reader sum{bytes, signed_part.size()};
  if (sum.u32("snapshot.checksum") != fnv1a32(signed_part)) {
    throw std::invalid_argument("coordinator snapshot checksum mismatch");
  }
  const std::string_view body = signed_part.substr(kMagic.size());
  walk(body, nullptr);
  return walk(body, &coord);
}

void save_state(std::ostream& os, const sharded_coordinator& coord) {
  os << encode_snapshot(coord, 0);
}

std::uint64_t load_state(std::istream& is, sharded_coordinator& coord) {
  std::ostringstream bytes;
  bytes << is.rdbuf();
  return decode_snapshot(bytes.view(), coord);
}

}  // namespace wiscape::core
