// Coordinator-state snapshots: one fenced binary format, one encoder, one
// decoder. A snapshot is:
//
//   "WISCAPE-COORD v3\n"
//   u64 fence                      highest log/WAL sequence the state covers
//   entries, each a u8 tag:
//     1  frozen estimate           core::epoch_record (seq 0)
//     2  open-epoch accumulator    i32 zone_ix, i32 zone_iy, u8 metric,
//                                  f64 open_start, u64 n, f64 mean, f64 m2,
//                                  str16 network
//     0  end of entries
//   u64 alert_seq                  the alert ring's high sequence number
//   u32 fnv1a32                    over every byte before it
//
// Frozen estimates use the one frozen-epoch codec (core/epoch_record.h), so
// a snapshot, a WAL record and an EPOCHB element encode an estimate the
// same way, as raw IEEE-754 bits: round trips are bit-exact. Entries are
// sorted by (zone, network, metric); each stream's history comes oldest
// first, then its open accumulator when that epoch has samples, so a
// coordinator killed mid-epoch resumes exactly where it stopped. The alert
// sequence resumes alert numbering after a restart instead of restarting
// at 1, which would rewind client cursors.
//
// The fence ties the snapshot to a log: core::durable_log stamps the
// highest WAL sequence it has seen and replays only records above it;
// replication catch-up (src/repl) stamps the leader log's sequence, and
// the joiner resumes pulling after it. The decoder checks the magic and the
// checksum and decodes the whole body before it restores anything, so
// truncated, bit-flipped or malformed input -- catch-up bytes come from a
// peer over TCP -- throws std::invalid_argument and restores nothing.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace wiscape::core {

class sharded_coordinator;

/// Renders `coord`'s full estimate state fenced at `fence`. Quiesce
/// producers (flush()) first so in-flight reports are applied. Honours the
/// `persist_save` fault-injection site: an injected fault throws
/// std::runtime_error before anything is rendered, modelling a failed
/// snapshot (callers must treat a throw as "no snapshot taken").
std::string encode_snapshot(const sharded_coordinator& coord,
                            std::uint64_t fence);

/// Restores a snapshot into a freshly constructed coordinator (same grid /
/// networks / config) and returns its fence. Must be called before any
/// report is ingested: the alert sequence resumes the alert ring's
/// numbering, which alert_ring::resume_from only permits on an untouched
/// ring. Throws std::invalid_argument on any damage, before restoring.
std::uint64_t decode_snapshot(std::string_view bytes,
                              sharded_coordinator& coord);

/// encode_snapshot / decode_snapshot over streams (fence 0 on save).
void save_state(std::ostream& os, const sharded_coordinator& coord);
std::uint64_t load_state(std::istream& is, sharded_coordinator& coord);

}  // namespace wiscape::core
