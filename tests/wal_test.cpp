// Crash-consistency tests for the WAL/snapshot pair.
//
// The torn-write corpus is the core: a WAL stream cut at EVERY byte
// offset -- mid-header, mid-length, mid-record, mid-checksum, and at each
// record boundary -- must recover to exactly the last complete record,
// count core.persist.wal_truncated once per damaged tail, and never crash.
// The snapshot fence tests replay the crash between a checkpoint's rename
// and its WAL reset, and a restart right after a checkpoint.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/byte_codec.h"
#include "core/durable_log.h"
#include "core/epoch_record.h"
#include "core/fault_injection.h"
#include "core/sharded_coordinator.h"
#include "geo/projection.h"
#include "geo/zone_grid.h"
#include "obs/names.h"
#include "obs/registry.h"
#include "scenario/injector.h"

namespace wiscape {
namespace {

struct wal_record {
  std::uint64_t seq;
  core::estimate_key key;
  core::epoch_estimate est;
};

std::vector<wal_record> corpus_records() {
  std::vector<wal_record> recs;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    wal_record r;
    r.seq = i;
    r.key = {{static_cast<int>(i % 3), -1}, "NetB",
             trace::metric::udp_throughput_bps};
    // Deliberately awkward doubles: raw-bit records round-trip them exactly.
    r.est.epoch_start_s = 300.0 * static_cast<double>(i) + 0.125;
    r.est.mean = 1.0e6 / 3.0 + static_cast<double>(i);
    r.est.stddev = 7.0 / 9.0;
    r.est.samples = 11 * i;
    recs.push_back(std::move(r));
  }
  return recs;
}

// Renders the corpus and the byte offset at which each record completes.
std::string render_corpus(const std::vector<wal_record>& recs,
                          std::vector<std::size_t>& ends) {
  std::ostringstream os;
  core::wal_write_header(os);
  const std::size_t header_end = os.str().size();
  ends.clear();
  ends.push_back(header_end);  // "zero records complete" boundary
  for (const wal_record& r : recs) {
    core::wal_append_record(os, r.seq, r.key, r.est);
    ends.push_back(os.str().size());
  }
  return os.str();
}

obs::counter& truncated_counter() {
  return obs::registry::global().get_counter(obs::names::kPersistWalTruncated);
}

TEST(Wal, TornTailCorpusRecoversToLastCompleteRecord) {
  const std::vector<wal_record> recs = corpus_records();
  std::vector<std::size_t> ends;
  const std::string full = render_corpus(recs, ends);

  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    // Number of complete records wholly inside the prefix.
    std::size_t complete = 0;
    while (complete + 1 < ends.size() && ends[complete + 1] <= cut) {
      ++complete;
    }
    // A clean cut lands exactly on a boundary (including the empty file
    // and the header line); anything else is a torn tail.
    const bool clean =
        cut == 0 || (cut >= ends.front() &&
                     std::find(ends.begin(), ends.end(), cut) != ends.end());

    std::istringstream is(full.substr(0, cut));
    std::vector<wal_record> applied;
    const std::uint64_t before = truncated_counter().value();
    const std::uint64_t last = core::wal_replay(
        is, 0, [&](std::uint64_t seq, const core::estimate_key& key,
                const core::epoch_estimate& est) {
          applied.push_back({seq, key, est});
        });
    const std::uint64_t torn_delta = truncated_counter().value() - before;

    ASSERT_EQ(applied.size(), complete) << "cut at byte " << cut;
    EXPECT_EQ(last, complete == 0 ? 0u : recs[complete - 1].seq)
        << "cut at byte " << cut;
    EXPECT_EQ(torn_delta, clean ? 0u : 1u) << "cut at byte " << cut;
    // Replayed records are bit-exact, never partially parsed.
    for (std::size_t i = 0; i < applied.size(); ++i) {
      EXPECT_EQ(applied[i].seq, recs[i].seq);
      EXPECT_EQ(applied[i].key.network, recs[i].key.network);
      EXPECT_EQ(applied[i].est.epoch_start_s, recs[i].est.epoch_start_s);
      EXPECT_EQ(applied[i].est.mean, recs[i].est.mean);
      EXPECT_EQ(applied[i].est.stddev, recs[i].est.stddev);
      EXPECT_EQ(applied[i].est.samples, recs[i].est.samples);
    }
  }
}

TEST(Wal, BitRotInsideAValidLengthRecordIsCaughtByTheChecksum) {
  const std::vector<wal_record> recs = corpus_records();
  std::vector<std::size_t> ends;
  std::string full = render_corpus(recs, ends);
  // Flip one bit of the THIRD record's mean (past its u32 length, u64 seq,
  // zone, metric and epoch start): same length, bad sum.
  full[ends[2] + 4 + 8 + 4 + 4 + 1 + 8 + 3] ^= 0x01;

  std::istringstream is(full);
  std::size_t applied = 0;
  const std::uint64_t before = truncated_counter().value();
  const std::uint64_t last = core::wal_replay(
      is, 0, [&](std::uint64_t, const core::estimate_key&,
                 const core::epoch_estimate&) { ++applied; });
  EXPECT_EQ(applied, 2u);  // stops before the rotten record
  EXPECT_EQ(last, 2u);
  EXPECT_EQ(truncated_counter().value() - before, 1u);
}

// Appends a record frame whose u32 length claims `len` bytes, `len` zero
// bytes of body and a checksum that is valid for them.
void append_frame(std::string& wal, std::uint32_t len) {
  std::string frame;
  core::put_u32(frame, len);
  frame.append(len, '\0');
  core::put_u32(frame, core::fnv1a32(frame));
  wal += frame;
}

TEST(Wal, LengthPrefixBeyondOneRecordIsATornTail) {
  const std::vector<wal_record> recs = corpus_records();
  std::vector<std::size_t> ends;
  const std::string two = render_corpus({recs[0], recs[1]}, ends);
  // One length past the largest record (checksum valid, so only the bound
  // can refuse it), one claiming ~4 GiB, one below the smallest record.
  for (const std::uint32_t len :
       {static_cast<std::uint32_t>(core::max_epoch_record_bytes + 1),
        std::uint32_t{0xfffffff0}, std::uint32_t{3}}) {
    std::string wal = two;
    if (len < (1u << 20)) {
      append_frame(wal, len);
    } else {
      core::put_u32(wal, len);  // the claim alone: the bytes never exist
      wal += "tail";
    }
    std::istringstream is(wal);
    std::size_t applied = 0;
    const std::uint64_t before = truncated_counter().value();
    const std::uint64_t last = core::wal_replay(
        is, 0, [&](std::uint64_t, const core::estimate_key&,
                   const core::epoch_estimate&) { ++applied; });
    EXPECT_EQ(applied, 2u) << len;
    EXPECT_EQ(last, 2u) << len;
    EXPECT_EQ(truncated_counter().value() - before, 1u) << len;
  }
}

TEST(Wal, RecordsAtOrBelowTheFenceAreSkipped) {
  const std::vector<wal_record> recs = corpus_records();
  std::vector<std::size_t> ends;
  std::istringstream is(render_corpus(recs, ends));
  std::vector<std::uint64_t> seqs;
  const std::uint64_t last = core::wal_replay(
      is, 3, [&](std::uint64_t seq, const core::estimate_key&,
                 const core::epoch_estimate&) { seqs.push_back(seq); });
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{4, 5}));
  EXPECT_EQ(last, 5u);
}

// ---- the on-disk pair ------------------------------------------------------

struct pair_fixture {
  std::string dir;
  geo::projection proj{geo::lat_lon{43.0, -89.4}};
  geo::zone_grid grid{proj, 250.0};

  pair_fixture() {
    dir = testing::TempDir() + "wal_pair_" +
          std::to_string(reinterpret_cast<std::uintptr_t>(this));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }
  ~pair_fixture() { std::filesystem::remove_all(dir); }

  core::sharded_coordinator make_coord() {
    return core::sharded_coordinator(grid, {"NetB"}, {}, 1);
  }
};

void expect_same_histories(const core::sharded_coordinator& a,
                           const core::sharded_coordinator& b) {
  ASSERT_EQ(b.keys().size(), a.keys().size());
  for (const core::estimate_key& k : a.keys()) {
    const auto ah = a.history(k);
    const auto bh = b.history(k);
    ASSERT_EQ(ah.size(), bh.size());
    for (std::size_t i = 0; i < ah.size(); ++i) {
      EXPECT_EQ(ah[i].epoch_start_s, bh[i].epoch_start_s);
      EXPECT_EQ(ah[i].mean, bh[i].mean);
      EXPECT_EQ(ah[i].stddev, bh[i].stddev);
      EXPECT_EQ(ah[i].samples, bh[i].samples);
    }
  }
}

TEST(DurableLog, AppendCheckpointRecoverRoundTrip) {
  pair_fixture fx;
  core::durable_log dl(fx.dir);
  core::sharded_coordinator a = fx.make_coord();

  const std::vector<wal_record> recs = corpus_records();
  // First three epochs land in the coordinator AND the WAL...
  for (std::size_t i = 0; i < 3; ++i) {
    a.restore_estimate(recs[i].key, recs[i].est);
    dl.append(recs[i].seq, recs[i].key, recs[i].est);
  }
  // ...then a checkpoint folds them into the snapshot and resets the WAL...
  dl.checkpoint(a);
  // ...and two more ride the fresh WAL only.
  for (std::size_t i = 3; i < recs.size(); ++i) {
    a.restore_estimate(recs[i].key, recs[i].est);
    dl.append(recs[i].seq, recs[i].key, recs[i].est);
  }

  core::sharded_coordinator b = fx.make_coord();
  const std::uint64_t last = dl.recover(b);
  EXPECT_EQ(last, recs.back().seq);
  expect_same_histories(a, b);
}

TEST(DurableLog, InjectedAppendFaultLeavesTheTailIntact) {
  pair_fixture fx;
  core::durable_log dl(fx.dir);
  const std::vector<wal_record> recs = corpus_records();
  dl.append(recs[0].seq, recs[0].key, recs[0].est);
  const auto size_before = std::filesystem::file_size(dl.wal_path());

  scenario::injector inj(1);
  inj.add_rule({core::fault::site::wal_append, 0, 1, 1.0,
                core::fault::action::fail});
  scenario::arm_scope armed(inj);
  EXPECT_THROW(dl.append(recs[1].seq, recs[1].key, recs[1].est),
               std::runtime_error);
  // Full-disk model: nothing was written, the tail is the previous record.
  EXPECT_EQ(std::filesystem::file_size(dl.wal_path()), size_before);
  // The rule's budget is spent: the retry lands.
  dl.append(recs[1].seq, recs[1].key, recs[1].est);

  core::sharded_coordinator back = fx.make_coord();
  EXPECT_EQ(dl.recover(back), recs[1].seq);
}

TEST(DurableLog, TornCheckpointPreservesSnapshotAndWal) {
  pair_fixture fx;
  core::durable_log dl(fx.dir);
  core::sharded_coordinator a = fx.make_coord();
  const std::vector<wal_record> recs = corpus_records();
  for (std::size_t i = 0; i < 2; ++i) {
    a.restore_estimate(recs[i].key, recs[i].est);
    dl.append(recs[i].seq, recs[i].key, recs[i].est);
  }
  dl.checkpoint(a);  // a good snapshot to protect
  a.restore_estimate(recs[2].key, recs[2].est);
  dl.append(recs[2].seq, recs[2].key, recs[2].est);

  scenario::injector inj(1);
  inj.add_rule({core::fault::site::snapshot_torn, 0, 1, 1.0,
                core::fault::action::fail});
  scenario::arm_scope armed(inj);
  EXPECT_THROW(dl.checkpoint(a), std::runtime_error);
  // The crash left a truncated temp file, never the real snapshot.
  EXPECT_TRUE(std::filesystem::exists(dl.snapshot_path() + ".tmp"));

  // Recovery = intact previous snapshot + the intact WAL suffix.
  core::sharded_coordinator b = fx.make_coord();
  EXPECT_EQ(dl.recover(b), recs[2].seq);
  const core::estimate_key& k = recs[0].key;
  EXPECT_EQ(b.history(k).size(), a.history(k).size());
}

// ---- the open WAL stream ----------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

// The WAL bytes a fresh header plus `recs` would render to.
std::string rendered(const std::vector<wal_record>& recs) {
  std::ostringstream os;
  core::wal_write_header(os);
  for (const wal_record& r : recs) {
    core::wal_append_record(os, r.seq, r.key, r.est);
  }
  return os.str();
}

std::vector<std::uint64_t> replayed_seqs(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::vector<std::uint64_t> seqs;
  core::wal_replay(is, 0, [&](std::uint64_t seq, const core::estimate_key&,
                              const core::epoch_estimate&) {
    seqs.push_back(seq);
  });
  return seqs;
}

TEST(DurableLog, EveryAppendIsVisibleToAnIndependentReaderOnReturn) {
  pair_fixture fx;
  core::durable_log dl(fx.dir);
  const std::vector<wal_record> recs = corpus_records();
  for (std::size_t i = 0; i < recs.size(); ++i) {
    dl.append(recs[i].seq, recs[i].key, recs[i].est);
    // The stream stays open, yet each record has reached the OS whole.
    const std::vector<wal_record> so_far(recs.begin(),
                                         recs.begin() + i + 1);
    EXPECT_EQ(slurp(dl.wal_path()), rendered(so_far));
  }
}

TEST(DurableLog, ReopeningAnExistingWalAppendsWithoutASecondHeader) {
  pair_fixture fx;
  const std::vector<wal_record> recs = corpus_records();
  {
    core::durable_log first(fx.dir);
    for (std::size_t i = 0; i < 2; ++i) {
      first.append(recs[i].seq, recs[i].key, recs[i].est);
    }
  }
  core::durable_log second(fx.dir);
  for (std::size_t i = 2; i < recs.size(); ++i) {
    second.append(recs[i].seq, recs[i].key, recs[i].est);
  }
  EXPECT_EQ(slurp(second.wal_path()), rendered(recs));

  core::sharded_coordinator back = fx.make_coord();
  EXPECT_EQ(second.recover(back), recs.back().seq);
  for (const wal_record& r : recs) {
    const auto h = back.history(r.key);
    EXPECT_TRUE(std::any_of(h.begin(), h.end(), [&](const auto& e) {
      return e.epoch_start_s == r.est.epoch_start_s && e.mean == r.est.mean;
    }));
  }
}

TEST(DurableLog, CheckpointLeavesHeaderPlusLaterRecordsOnly) {
  pair_fixture fx;
  core::durable_log dl(fx.dir);
  core::sharded_coordinator a = fx.make_coord();
  const std::vector<wal_record> recs = corpus_records();
  for (std::size_t i = 0; i < 3; ++i) {
    a.restore_estimate(recs[i].key, recs[i].est);
    dl.append(recs[i].seq, recs[i].key, recs[i].est);
  }
  dl.checkpoint(a);
  EXPECT_EQ(slurp(dl.wal_path()), rendered({}));
  for (std::size_t i = 3; i < recs.size(); ++i) {
    dl.append(recs[i].seq, recs[i].key, recs[i].est);
  }
  EXPECT_EQ(slurp(dl.wal_path()),
            rendered({recs.begin() + 3, recs.end()}));
}

TEST(DurableLog, GoodAppendAfterAnInjectedFaultRecoversBoth) {
  pair_fixture fx;
  core::durable_log dl(fx.dir);
  const std::vector<wal_record> recs = corpus_records();
  dl.append(recs[0].seq, recs[0].key, recs[0].est);
  {
    scenario::injector inj(1);
    inj.add_rule({core::fault::site::wal_append, 0, 1, 1.0,
                  core::fault::action::fail});
    scenario::arm_scope armed(inj);
    EXPECT_THROW(dl.append(recs[1].seq, recs[1].key, recs[1].est),
                 std::runtime_error);
  }
  dl.append(recs[2].seq, recs[2].key, recs[2].est);
  EXPECT_EQ(replayed_seqs(dl.wal_path()),
            (std::vector<std::uint64_t>{recs[0].seq, recs[2].seq}));

  core::sharded_coordinator back = fx.make_coord();
  EXPECT_EQ(dl.recover(back), recs[2].seq);
  EXPECT_EQ(back.history(recs[0].key).size(), 1u);
  EXPECT_EQ(back.history(recs[2].key).size(), 1u);
}

TEST(DurableLog, FailedWriteClosesTheStreamAndTheNextAppendReopens) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "needs /dev/full to make a write fail";
  }
  pair_fixture fx;
  core::durable_log dl(fx.dir);
  const std::vector<wal_record> recs = corpus_records();
  // Every write to /dev/full fails with ENOSPC: a full-disk WAL.
  std::filesystem::create_symlink("/dev/full", dl.wal_path());
  EXPECT_THROW(dl.append(recs[0].seq, recs[0].key, recs[0].est),
               std::runtime_error);
  // Space comes back as a fresh file; the next append must open it rather
  // than keep writing through the failed stream.
  std::filesystem::remove(dl.wal_path());
  dl.append(recs[1].seq, recs[1].key, recs[1].est);
  EXPECT_EQ(slurp(dl.wal_path()), rendered({recs[1]}));
}

// ---- the snapshot fence ----------------------------------------------------

TEST(DurableLog, CrashBetweenRenameAndWalResetRecoversExactly) {
  pair_fixture fx;
  core::sharded_coordinator a = fx.make_coord();
  const std::vector<wal_record> recs = corpus_records();
  {
    core::durable_log dl(fx.dir);
    for (std::size_t i = 0; i < 3; ++i) {
      a.restore_estimate(recs[i].key, recs[i].est);
      dl.append(recs[i].seq, recs[i].key, recs[i].est);
    }
    const std::string pre_checkpoint = slurp(dl.wal_path());
    dl.checkpoint(a);
    // The crash: the renamed snapshot is in place, but the WAL reset never
    // happened, so the WAL still holds records the snapshot already has.
    std::ofstream os(dl.wal_path(), std::ios::binary | std::ios::trunc);
    os << pre_checkpoint;
  }
  core::durable_log dl(fx.dir);
  core::sharded_coordinator b = fx.make_coord();
  EXPECT_EQ(dl.recover(b), recs[2].seq);
  expect_same_histories(a, b);  // 3 epochs, not 3 twice
  std::size_t epochs = 0;
  for (const core::estimate_key& k : b.keys()) epochs += b.history(k).size();
  EXPECT_EQ(epochs, 3u);
}

TEST(DurableLog, CheckpointWithNoLaterAppendsRecoversTheFence) {
  pair_fixture fx;
  core::sharded_coordinator a = fx.make_coord();
  const std::vector<wal_record> recs = corpus_records();
  {
    core::durable_log dl(fx.dir);
    for (std::size_t i = 0; i < 3; ++i) {
      a.restore_estimate(recs[i].key, recs[i].est);
      dl.append(recs[i].seq, recs[i].key, recs[i].est);
    }
    dl.checkpoint(a);
  }
  // An empty WAL after the checkpoint: the covered sequence comes from the
  // snapshot's fence alone...
  core::durable_log dl(fx.dir);
  core::sharded_coordinator b = fx.make_coord();
  EXPECT_EQ(dl.recover(b), recs[2].seq);
  expect_same_histories(a, b);
  // ...and a checkpoint of the recovered state carries it forward.
  dl.checkpoint(b);
  core::sharded_coordinator c = fx.make_coord();
  EXPECT_EQ(core::durable_log(fx.dir).recover(c), recs[2].seq);
}

}  // namespace
}  // namespace wiscape
