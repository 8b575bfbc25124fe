// Allocation regression gate for the zero-allocation reply path (ISSUE 8).
//
// Asserts that coordinator_server::handle() performs ZERO heap
// allocations per request in steady state -- a reused reply_buffer, warmed
// scratch vectors, short (SSO) operator names -- across the hot request
// types: QUERY (EST reply), QUERYB, REPORT (ACK), REPORTB (ACK <n>), the
// ERR unsupported path, and (since wire protocol v3) the binary twins of
// every hot frame. Same counting-operator-new technique as
// bench_apply_path, but kept in its own tiny executable: a global
// operator new override must not ride along inside the gtest binary (it
// would fight the sanitizer builds' interceptors).
//
// A second gate covers the served shape: REPORTB frames of 64 records
// (text and v3) into a 2-shard *asynchronous* coordinator, where the
// calling thread routes each frame into the shards' queues. Only the
// calling thread's allocations count (the flag is thread-local); the drain
// workers' table growth is theirs, not the hand-off's.
//
// A third gate covers refused check-ins: an invalid network index or an
// out-of-range position answers IDLE without creating zone state.
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/sharded_coordinator.h"
#include "geo/zone_grid.h"
#include "proto/messages.h"
#include "proto/server.h"
#include "proto/wire_v3.h"
#include "repl/replica.h"
#include "test_util.h"
#include "trace/record.h"

// ---- allocation-counting hook ---------------------------------------------
namespace {
thread_local bool g_count_allocs = false;
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  if (g_count_allocs) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t) { return counted_alloc(n); }
void* operator new[](std::size_t n, std::align_val_t) {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "CHECK failed at %s:%d: %s\n", __FILE__,     \
                   __LINE__, #cond);                                    \
      return 1;                                                         \
    }                                                                   \
  } while (0)

using namespace wiscape;

int main() {
  const auto dep = testing::tiny_deployment();
  const geo::zone_grid grid(dep.proj(), 250.0);
  core::sharded_coordinator coord(grid, dep.names(), testing::sequential(), 5);
  proto::coordinator_server server(coord);
  const geo::lat_lon here = cellnet::anchors::madison;

  proto::reply_buffer out;

  // Publish estimates: stream reports across several epochs so QUERY at
  // the stream's tail answers EST, not NONE. The stream is long enough to
  // push the coordinator's per-(zone,network) history series through a
  // full history_cap trim-and-compact cycle: past that point the series'
  // backing vector has reached its steady-state capacity and add/trim
  // never reallocates, so the counted loops below see the true
  // steady-state allocation count (0), not an amortized growth spike.
  for (int i = 0; i < 20000; ++i) {
    proto::measurement_report rep;
    rep.client_id = 7;
    rep.record = testing::make_record(static_cast<double>(i), "NetB", here,
                                      trace::probe_kind::udp_burst, 1.0e6);
    out.clear();
    server.handle(proto::request_view::detect(proto::encode(rep)), out);
    CHECK(out.view() == "ACK");
  }

  // The request corpus, one per hot reply shape.
  proto::query_request q;
  q.pos = here;
  q.network = "NetB";
  q.metric = trace::metric::udp_throughput_bps;
  q.time_s = 19999.0;
  const std::string query_line = proto::encode(q);
  const std::vector<proto::query_request> qs = {q, q};
  const std::string queryb_frame = proto::encode_query_batch(qs);

  proto::measurement_report rep;
  rep.client_id = 7;
  rep.record = testing::make_record(19999.0, "NetB", here,
                                    trace::probe_kind::udp_burst, 1.0e6);
  const std::string report_line = proto::encode(rep);
  std::vector<trace::measurement_record> recs;
  for (int i = 0; i < 16; ++i) recs.push_back(rep.record);
  const std::string reportb_frame = proto::encode_report_batch(recs);

  const std::string bogus_line = "BOGUS totally unsupported request";

  // Replication opcodes (ISSUE 10): a leader serving EPOCH pulls and a
  // follower absorbing EPOCHB applies must hold the same steady state --
  // pull serves out of the reply_buffer's warmed epoch scratch, and a
  // re-applied batch is all cursor duplicates (skip path, no table
  // mutation). Short network names ride SSO, like everywhere else.
  core::sharded_config repl_cfg;
  repl_cfg.num_shards = 1;
  repl_cfg.synchronous = true;  // no worker threads to muddy the counts
  repl_cfg.coordinator.epochs.default_epoch_s = 100.0;
  core::sharded_coordinator lcoord(grid, dep.names(), repl_cfg, 6);
  proto::coordinator_server lserver(lcoord);
  repl::leader lead(lcoord);
  lserver.attach_replication(&lead);
  core::sharded_coordinator fcoord(grid, dep.names(), repl_cfg, 6);
  proto::coordinator_server fserver(fcoord);
  repl::follower fol(fcoord);
  fserver.attach_replication(&fol);
  for (int i = 0; i < 2000; ++i) {  // ~19 rollovers into the leader's log
    proto::measurement_report rrep;
    rrep.client_id = 9;
    rrep.record = testing::make_record(static_cast<double>(i), "NetB", here,
                                       trace::probe_kind::udp_burst, 1.0e6);
    out.clear();
    lserver.handle(proto::request_view::detect(proto::encode(rrep)), out);
    CHECK(out.view() == "ACK");
  }
  const std::string epoch_pull_v3 = proto::v3::encode_epoch_pull_frame({0, 16});
  out.clear();
  lserver.handle(proto::request_view::detect(epoch_pull_v3), out);
  CHECK(proto::v3::peek_header(out.view())->op == proto::v3::opcode::epochb);
  const std::string epochb_apply_v3(out.view());
  out.clear();
  // First apply: real inserts.
  fserver.handle(proto::request_view::detect(epochb_apply_v3), out);
  CHECK(proto::v3::peek_header(out.view())->op == proto::v3::opcode::ack);

  // The binary v3 twins of every hot frame, plus a malformed binary frame
  // (undefined opcode) that draws the typed binary ERR reply.
  const std::string report_frame_v3 = proto::v3::encode_report_frame(rep);
  const std::string reportb_frame_v3 = proto::v3::encode_report_batch_frame(recs);
  const std::string query_frame_v3 = proto::v3::encode_query_frame(q);
  const std::string queryb_frame_v3 = proto::v3::encode_query_batch_frame(qs);
  const std::string bad_frame_v3("\xB3\x1f\x00\x00\x00\x00", 6);

  // Sanity: the query really serves an estimate (a NONE corpus would pass
  // the allocation gate while proving nothing about EST encoding).
  out.clear();
  server.handle(proto::request_view::detect(query_line), out);
  CHECK(out.view().substr(0, 4) == "EST ");
  out.clear();
  server.handle(proto::request_view::detect(bogus_line), out);
  CHECK(out.view().substr(0, 15) == "ERR unsupported");
  out.clear();
  server.handle(proto::request_view::detect(query_frame_v3), out);
  CHECK(proto::v3::peek_header(out.view()).has_value());
  CHECK(proto::v3::peek_header(out.view())->op == proto::v3::opcode::est);
  out.clear();
  server.handle(proto::request_view::detect(bad_frame_v3), out);
  CHECK(proto::v3::peek_header(out.view())->op == proto::v3::opcode::err);

  struct test_case {
    const char* name;
    const std::string* line;
    proto::coordinator_server* srv;
  };
  const test_case cases[] = {
      {"QUERY->EST", &query_line, &server},
      {"QUERYB->ESTB", &queryb_frame, &server},
      {"REPORT->ACK", &report_line, &server},
      {"REPORTB->ACK n", &reportb_frame, &server},
      {"unknown->ERR", &bogus_line, &server},
      {"v3 QUERY->EST", &query_frame_v3, &server},
      {"v3 QUERYB->ESTB", &queryb_frame_v3, &server},
      {"v3 REPORT->ACK", &report_frame_v3, &server},
      {"v3 REPORTB->ACK", &reportb_frame_v3, &server},
      {"v3 bad op->ERR", &bad_frame_v3, &server},
      {"v3 EPOCH->EPOCHB", &epoch_pull_v3, &lserver},
      {"v3 EPOCHB->ACK", &epochb_apply_v3, &fserver},
  };

  constexpr int kIters = 200;
  int failures = 0;
  for (const auto& tc : cases) {
    // Warm: reply_buffer capacity, scratch vectors, interner entries.
    for (int i = 0; i < 3; ++i) {
      out.clear();
      tc.srv->handle(proto::request_view::detect(*tc.line), out);
    }
    g_allocs.store(0);
    g_count_allocs = true;
    for (int i = 0; i < kIters; ++i) {
      out.clear();
      tc.srv->handle(proto::request_view::detect(*tc.line), out);
    }
    g_count_allocs = false;
    const std::uint64_t allocs = g_allocs.load();
    std::printf("  %-15s %3d requests, %llu heap allocations\n", tc.name,
                kIters, static_cast<unsigned long long>(allocs));
    if (allocs != 0) ++failures;
  }
  CHECK(failures == 0);

  // ---- served shape: 2 shards, asynchronous ------------------------------
  core::sharded_config served_cfg;
  served_cfg.num_shards = 2;
  served_cfg.synchronous = false;
  core::sharded_coordinator acoord(grid, dep.names(), served_cfg, 8);
  proto::coordinator_server aserver(acoord);
  // 64 records over 8 zones ~330 m apart, so every frame touches both
  // shards and exercises the per-shard routing.
  std::vector<trace::measurement_record> frame_recs;
  for (int i = 0; i < 64; ++i) {
    const geo::lat_lon pos{here.lat_deg + 0.003 * (i % 8), here.lon_deg};
    frame_recs.push_back(testing::make_record(
        100.0 + i, i % 2 == 0 ? "NetB" : "NetC", pos,
        trace::probe_kind::udp_burst, 1.0e6));
    frame_recs.back().client_id = 7;
  }
  const std::string served_text = proto::encode_report_batch(frame_recs);
  const std::string served_v3 =
      proto::v3::encode_report_batch_frame(frame_recs);
  out.clear();
  aserver.handle(proto::request_view::detect(served_text), out);
  CHECK(out.view() == "ACK 64");
  acoord.flush();
  CHECK(acoord.stats_of(0).reports_ingested > 0);
  CHECK(acoord.stats_of(1).reports_ingested > 0);

  const test_case served[] = {
      {"2-shard REPORTB", &served_text, &aserver},
      {"2-shard v3 REPORTB", &served_v3, &aserver},
  };
  for (const auto& tc : served) {
    for (int i = 0; i < 3; ++i) {
      out.clear();
      tc.srv->handle(proto::request_view::detect(*tc.line), out);
    }
    g_allocs.store(0);
    g_count_allocs = true;
    for (int i = 0; i < kIters; ++i) {
      out.clear();
      tc.srv->handle(proto::request_view::detect(*tc.line), out);
    }
    g_count_allocs = false;
    const std::uint64_t allocs = g_allocs.load();
    std::printf("  %-18s %3d frames of 64, %llu heap allocations\n", tc.name,
                kIters, static_cast<unsigned long long>(allocs));
    if (allocs != 0) ++failures;
  }
  acoord.flush();
  CHECK(acoord.reports_ingested() == acoord.reports_received());
  CHECK(acoord.reports_received() == 64u * (1 + 2 * (3 + kIters)));
  CHECK(failures == 0);

  // ---- check-ins refused before any state is touched ---------------------
  // An invalid network index or a position outside the table's zone range
  // answers IDLE without creating zone state: distinct zones, 0 allocations.
  const double nan = std::nan("");
  const struct {
    const char* name;
    std::size_t network_index;
    bool bad_position;
  } refused[] = {{"bad-index CHECKIN", dep.names().size(), false},
                 {"NaN-pos CHECKIN", 0, true}};
  for (const auto& tc : refused) {
    g_allocs.store(0);
    g_count_allocs = true;
    std::size_t tasked = 0;
    for (int i = 0; i < 1000; ++i) {
      const geo::lat_lon pos =
          tc.bad_position ? geo::lat_lon{nan, here.lon_deg + 0.003 * i}
                          : geo::lat_lon{here.lat_deg + 0.003 * i,
                                         here.lon_deg};
      if (coord.checkin(pos, 30000.0 + i, tc.network_index, 1)) ++tasked;
    }
    g_count_allocs = false;
    const std::uint64_t allocs = g_allocs.load();
    std::printf("  %-18s 1000 zones, %zu tasked, %llu heap allocations\n",
                tc.name, tasked, static_cast<unsigned long long>(allocs));
    if (allocs != 0 || tasked != 0) ++failures;
  }
  CHECK(failures == 0);
  std::printf("reply_alloc_test: all request types allocation-free\n");
  return 0;
}
