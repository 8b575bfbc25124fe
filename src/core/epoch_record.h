// The frozen-epoch record: one (zone, network, metric) stream's published
// estimate for one epoch -- the paper's unit of coverage (Sec 3.4) -- and
// its one binary encoding.
//
// Every place a frozen estimate leaves memory uses this pair: the v3 EPOCHB
// element a leader ships to followers (docs/WIRE_PROTOCOL.md §9), each
// write-ahead-log record (core/durable_log.h) and each frozen estimate in a
// coordinator snapshot (core/persist.h). Layout, little-endian:
//
//   u64 seq | i32 zone_ix | i32 zone_iy | u8 metric |
//   f64 epoch_start_s | f64 mean | f64 stddev | u64 samples | str16 network
//
// Doubles are raw IEEE-754 bits (core/byte_codec.h), so a record that
// crosses the wire or the disk comes back bit-equal. `seq` is the
// replication log's sequence number (the follower's dedup cursor, the
// WAL's recovery fence); a snapshot writes 0 there, its fence lives in the
// snapshot header instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/byte_codec.h"
#include "core/zone_table.h"

namespace wiscape::core {

struct epoch_record {
  std::uint64_t seq = 0;
  geo::zone_id zone;
  std::string network;
  trace::metric metric = trace::metric::tcp_throughput_bps;
  double epoch_start_s = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  std::uint64_t samples = 0;

  static epoch_record of(std::uint64_t seq, const estimate_key& key,
                         const epoch_estimate& e) {
    return {seq,    key.zone, key.network, key.metric, e.epoch_start_s,
            e.mean, e.stddev, e.samples};
  }
  estimate_key key() const { return {zone, network, metric}; }
  epoch_estimate estimate() const {
    return {epoch_start_s, mean, stddev, static_cast<std::size_t>(samples)};
  }
};

/// Encoded size bounds: the fixed-width prefix plus a str16 network of
/// 0 and 0xffff bytes. Batch and WAL decoders check declared counts and
/// lengths against these before reserving or reading anything.
inline constexpr std::size_t min_epoch_record_bytes = 49 + 2;
inline constexpr std::size_t max_epoch_record_bytes =
    min_epoch_record_bytes + 0xffff;

/// Appends `r` in the layout above.
void put_epoch_record(std::string& out, const epoch_record& r);
/// Decodes one record at the reader's cursor. Throws std::invalid_argument
/// on truncation or a metric byte outside trace::metric.
void get_epoch_record(byte_reader& in, epoch_record& r);

/// Validates a wire metric byte. Throws std::invalid_argument when it
/// names no trace::metric.
trace::metric metric_from_byte(std::uint8_t b);

}  // namespace wiscape::core
