// Coordinator-state persistence: one snapshot format, one entry point.
//
// A real WiScape coordinator runs for months; its product -- the frozen
// per-zone-epoch estimates -- must survive restarts. The format is
// line-oriented text like the rest of the interchange surfaces, so
// operators can grep their coverage history:
//
//   WISCAPE-COORD v2
//   EST <zone> <network> <metric> <epoch_start> <mean> <stddev> <n>
//   OPEN <zone> <network> <metric> <open_start> <n> <mean> <m2>
//   ALERTSEQ <pushed>
//
// One EST line per frozen estimate, doubles printed with %.17g so a
// save/load round trip is bit-exact. Each stream with a non-empty open
// (not yet frozen) epoch adds one OPEN line carrying its Welford
// accumulator -- a coordinator killed mid-epoch resumes exactly where it
// stopped instead of losing the partial epoch. Streams whose open epoch is
// empty write no OPEN line: an empty epoch re-aligns to
// floor(t / duration) * duration on the first post-restart sample,
// identical to a fresh stream. ALERTSEQ records the alert ring's high
// sequence number, so a restarted coordinator resumes alert numbering
// instead of restarting at 1 (which would silently rewind client cursors).
//
// State is read and written through the narrow core::durable_state
// interface (src/core/durable_state.h), which core::sharded_coordinator
// implements; the same snapshot code serves standalone recovery and the
// replication catch-up path. The crash-consistent WAL/snapshot *pair*
// built on top of these snapshots lives in core/durable_log.h.
#pragma once

#include <iosfwd>

#include "core/durable_state.h"

namespace wiscape::core {

/// Writes a coordinator's full estimate state (frozen + open epochs,
/// deterministically sorted by zone, network, metric) plus the alert
/// sequence high-water mark. Quiesce producers (flush()) first so
/// in-flight reports are applied. Honours the `persist_save`
/// fault-injection site: an injected fault throws std::runtime_error
/// before anything is written, modelling a failed snapshot (callers must
/// treat a throw as "no snapshot taken").
void save_state(std::ostream& os, const durable_state& state);

/// Restores state saved by save_state into a freshly constructed
/// coordinator (same grid / networks / config). Must be called before any
/// report is ingested: the ALERTSEQ line resumes the alert ring's
/// numbering, which alert_ring::resume_from only permits on an untouched
/// ring. Throws std::invalid_argument on malformed input (bad header,
/// zone, metric or line).
void load_state(std::istream& is, durable_state& state);

}  // namespace wiscape::core
