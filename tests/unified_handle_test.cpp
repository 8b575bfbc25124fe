// The server's one request entry point, handle(request_view, reply_buffer&),
// plus the transport micro-batch handle_report_group(), pinned against a
// golden corpus of literal reply bytes. Text replies are spelled out; binary
// (v3) replies are given as hex. The corpus walks one coordinator through
// every command family in both framings, the malformed and refused paths
// (parse, unsupported, injected fault, stopped pipeline) and a grouped
// REPORT run, so a reply byte or an ingest count that moves fails here.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/fault_injection.h"
#include "core/sharded_coordinator.h"
#include "geo/projection.h"
#include "geo/zone_grid.h"
#include "proto/messages.h"
#include "proto/server.h"
#include "proto/wire_v3.h"
#include "trace/record.h"

namespace wiscape {
namespace {

namespace v3 = proto::v3;

/// Fails the server_handle seam on the `nth` (1-based) invocation after
/// installation and lets every other seam proceed.
class fail_nth_request : public core::fault::hook {
 public:
  explicit fail_nth_request(int nth) : nth_(nth) {}
  core::fault::action on(core::fault::site s) noexcept override {
    if (s != core::fault::site::server_handle) {
      return core::fault::action::proceed;
    }
    return ++seen_ == nth_ ? core::fault::action::fail
                           : core::fault::action::proceed;
  }

 private:
  int nth_;
  int seen_ = 0;
};

/// Installs a hook for one scope.
class fault_scope {
 public:
  explicit fault_scope(core::fault::hook& h)
      : prev_(core::fault::install(&h)) {}
  ~fault_scope() { core::fault::install(prev_); }

 private:
  core::fault::hook* prev_;
};

std::string hex(std::string_view bytes) {
  static constexpr char digits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto u = static_cast<unsigned char>(c);
    out.push_back(digits[u >> 4]);
    out.push_back(digits[u & 0xf]);
  }
  return out;
}

/// A C++ string literal spelling of `s` (printed on mismatch so a reviewer
/// can see exactly which byte moved).
std::string literal(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

struct corpus_fixture {
  geo::projection proj{geo::lat_lon{43.0, -89.4}};
  geo::zone_grid grid{proj, 250.0};
  core::sharded_coordinator coord;
  proto::coordinator_server server;
  geo::lat_lon here = proj.to_lat_lon(geo::xy{120.0, 80.0});
  std::vector<std::pair<std::string, std::string>> replies;

  static core::sharded_config cfg() {
    core::sharded_config c;
    c.coordinator.epochs.default_epoch_s = 100.0;
    c.num_shards = 1;
    c.synchronous = true;
    return c;
  }

  corpus_fixture() : coord(grid, {"NetB"}, cfg(), 1), server(coord) {
    // Publish one frozen epoch so QUERY draws an EST with real payload.
    std::vector<trace::measurement_record> recs;
    for (int i = 0; i < 12; ++i) {
      recs.push_back(tcp(10.0 * i, 2.0e6 + 1.0e4 * i));
    }
    coord.report_batch(recs);
    coord.flush();
  }

  trace::measurement_record tcp(double t, double bps) const {
    trace::measurement_record r;
    r.time_s = t;
    r.network = "NetB";
    r.pos = here;
    r.client_id = 3;
    r.kind = trace::probe_kind::tcp_download;
    r.success = true;
    r.throughput_bps = bps;
    return r;
  }

  trace::measurement_record ping(double t) const {
    trace::measurement_record r;
    r.time_s = t;
    r.network = "NetB";
    r.pos = here;
    r.client_id = 4;
    r.kind = trace::probe_kind::ping;
    r.success = true;
    r.rtt_s = 0.031;
    r.ping_sent = 10;
    return r;
  }

  static proto::measurement_report report(const trace::measurement_record& r) {
    return {r.client_id, r};
  }

  proto::query_request query(trace::metric m, double t) const {
    proto::query_request q;
    q.pos = here;
    q.network = "NetB";
    q.metric = m;
    q.time_s = t;
    return q;
  }

  std::string checkin(std::uint32_t active, double t) const {
    proto::checkin_request c;
    c.client_id = 7;
    c.pos = here;
    c.time_s = t;
    c.network_index = 0;
    c.active_in_zone = active;
    return proto::encode(c);
  }

  /// Serves one request, recording the reply (binary replies as hex).
  void serve(const std::string& name, const std::string& req) {
    const bool binary = v3::is_frame_start(req);
    proto::reply_buffer rb;
    server.handle(binary ? proto::request_view::binary(req)
                         : proto::request_view::text(req),
                  rb);
    replies.emplace_back(name,
                         binary ? hex(rb.view()) : std::string(rb.view()));
  }

  /// Serves a REPORT run through the transport micro-batch.
  void serve_group(const std::string& name, const std::string& block,
                   std::size_t count) {
    proto::reply_buffer rb;
    server.handle_report_group(block, count, rb);
    replies.emplace_back(name, std::string(rb.view()));
  }

  void run() {
    using trace::metric;
    serve("checkin_task", checkin(1, 205.0));
    serve("checkin_idle", checkin(1000000, 206.0));
    serve("report_text", proto::encode(report(ping(205.0))));
    const std::vector<trace::measurement_record> two = {tcp(215.0, 3.0e6),
                                                        tcp(225.0, 3.1e6)};
    serve("reportb_text", proto::encode_report_batch(two));
    serve("report_v3", v3::encode_report_frame(report(tcp(235.0, 3.2e6))));
    const std::vector<trace::measurement_record> three = {
        tcp(245.0, 3.3e6), tcp(255.0, 3.4e6), tcp(265.0, 3.5e6)};
    serve("reportb_v3", v3::encode_report_batch_frame(three));

    const auto q_hit = query(metric::tcp_throughput_bps, 210.0);
    const std::vector<proto::query_request> qb = {
        q_hit, query(metric::rtt_s, 210.0)};
    serve("query_text", proto::encode(q_hit));
    serve("queryb_text", proto::encode_query_batch(qb));
    serve("query_v3", v3::encode_query_frame(q_hit));
    serve("queryb_v3", v3::encode_query_batch_frame(qb));
    serve("hello_text", proto::encode(proto::hello_request{2}));
    serve("alerts_text", proto::encode(proto::alerts_request{0, 16}));
    // (STATS is deliberately absent: its reply embeds live counter values.)

    serve("malformed_reportb_text", "REPORTB 2\ngarbage");
    serve("unknown_text", "NOSUCH arg=1");
    serve("unknown_long_text", "NOSUCH " + std::string(300, 'x'));
    serve("epoch_pull_unattached_v3", v3::encode_epoch_pull_frame({0, 8}));
    serve("promote_unattached_v3", v3::encode_promote_frame());
    std::string bad_op = v3::encode_query_frame(q_hit);
    bad_op[1] = '\x7f';
    serve("bad_opcode_v3", bad_op);
    std::string cut = v3::encode_query_frame(q_hit);
    cut.pop_back();
    serve("cut_envelope_v3", cut);
    {
      fail_nth_request hook(1);
      fault_scope armed(hook);
      serve("fault_text", proto::encode(report(tcp(275.0, 1.0))));
    }
    {
      fail_nth_request hook(1);
      fault_scope armed(hook);
      serve("fault_v3", v3::encode_query_frame(q_hit));
    }

    // One good line, one parse error, one injected fault: replies stay
    // positional and only the good line is ingested.
    {
      fail_nth_request hook(3);
      fault_scope armed(hook);
      const std::string block = proto::encode(report(tcp(305.0, 4.0e6))) +
                                "\nREPORT client=1 csv=notcsv\n" +
                                proto::encode(report(tcp(306.0, 4.1e6))) + "\n";
      serve_group("report_group", block, 3);
    }
    serve("report_text_late", proto::encode(report(tcp(405.0, 5.0e6))));
    const auto q_late = query(metric::tcp_throughput_bps, 410.0);
    serve("query_text_late", proto::encode(q_late));
    serve("queryb_v3_late", v3::encode_query_batch_frame({&q_late, 1}));

    coord.stop();
    serve("report_text_stopped", proto::encode(report(tcp(505.0, 1.0e6))));
    serve("reportb_v3_stopped", v3::encode_report_batch_frame(two));
    serve_group("report_group_stopped",
                proto::encode(report(tcp(506.0, 1.0e6))) + "\n" +
                    proto::encode(report(tcp(507.0, 1.0e6))) + "\n",
                2);
    replies.emplace_back(
        "counters", "reports=" + std::to_string(server.reports_received()) +
                        " tasks=" + std::to_string(server.tasks_issued()) +
                        " errors=" + std::to_string(server.errors()));
  }
};

struct golden_reply {
  const char* name;
  const char* bytes;  ///< text reply verbatim, or the binary reply as hex
};

// Captured before the server's codec/executor split; must never move.
const golden_reply kGolden[] = {
    {"checkin_task",
     "TASK kind=tcp net=0 tcp_bytes=0 udp_packets=0 ping_count=0"},
    {"checkin_idle", "IDLE"},
    {"report_text", "ACK"},
    {"reportb_text", "ACK 2"},
    {"report_v3", "b30509000000000000000000000000"},
    {"reportb_v3", "b30509000000010300000000000000"},
    {"query_text",
     "EST zone=0:0 net=NetB metric=tcp_throughput count=2 mean=210"
     "5000 stddev=7071.0678118654751 epoch=1 staleness_s=110 conf="
     "0.02"},
    {"queryb_text",
     "ESTB 2\n"
     "EST zone=0:0 net=NetB metric=tcp_throughput count=2 mean=210"
     "5000 stddev=7071.0678118654751 epoch=1 staleness_s=110 conf="
     "0.02\n"
     "NONE"},
    {"query_v3",
     "b3064000000001000000000000000000020000000000000000000000540f"
     "40417f501e5c119fbb4001000000000000000000000000805b407b14ae47"
     "e17a943f04004e657442"},
    {"queryb_v3",
     "b30745000000020000000100000000000000000002000000000000000000"
     "0000540f40417f501e5c119fbb4001000000000000000000000000805b40"
     "7b14ae47e17a943f04004e65744200"},
    {"hello_text", "HELLO ver=2 min=1"},
    {"alerts_text", "ALERTS 0 next=0 dropped=0"},
    {"malformed_reportb_text",
     "ERR parse REPORTB record 0: bad CSV field time_s: 'garbage'"},
    {"unknown_text", "ERR unsupported unsupported request: 'NOSUCH arg=1'"},
    {"unknown_long_text",
     "ERR unsupported unsupported request: 'NOSUCH xxxxxxxxxxxxxxx"
     "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"
     "xxxxxxxxxxxxxxxx..."},
    {"epoch_pull_unattached_v3",
     "b3081b0000000118007265706c69636174696f6e206e6f74206174746163"
     "686564"},
    {"promote_unattached_v3",
     "b3081b0000000118007265706c69636174696f6e206e6f74206174746163"
     "686564"},
    {"bad_opcode_v3",
     "b30822000000001f006d616c666f726d65642062696e617279206672616d"
     "6520656e76656c6f7065"},
    {"cut_envelope_v3",
     "b30822000000001f006d616c666f726d65642062696e617279206672616d"
     "6520656e76656c6f7065"},
    {"fault_text", "ERR internal injected fault: request refused"},
    {"fault_v3",
     "b30822000000041f00696e6a6563746564206661756c743a207265717565"
     "73742072656675736564"},
    {"report_group",
     "ACK\n"
     "ERR parse bad CSV field time_s: 'notcsv'\n"
     "ERR internal injected fault: request refused\n"},
    {"report_text_late", "ACK"},
    {"query_text_late",
     "EST zone=0:0 net=NetB metric=tcp_throughput count=1 mean=400"
     "0000 stddev=0 epoch=3 staleness_s=110 conf=0.01"},
    {"queryb_v3_late",
     "b30744000000010000000100000000000000000001000000000000000000"
     "000080844e41000000000000000003000000000000000000000000805b40"
     "7b14ae47e17a843f04004e657442"},
    {"report_text_stopped", "ERR stopped ingestion pipeline stopped"},
    {"reportb_v3_stopped",
     "b3081d000000021a00696e67657374696f6e20706970656c696e65207374"
     "6f70706564"},
    {"report_group_stopped",
     "ERR stopped ingestion pipeline stopped\n"
     "ERR stopped ingestion pipeline stopped\n"},
    {"counters", "reports=9 tasks=1 errors=15"},
};

TEST(UnifiedHandle, PinnedCorpusAnswersByteIdentically) {
  corpus_fixture fx;
  fx.run();
  ASSERT_EQ(fx.replies.size(), std::size(kGolden));
  for (std::size_t i = 0; i < fx.replies.size(); ++i) {
    const auto& [name, reply] = fx.replies[i];
    EXPECT_EQ(name, kGolden[i].name);
    EXPECT_EQ(reply, kGolden[i].bytes)
        << "    {" << literal(name) << ", " << literal(reply) << "},";
  }
}

TEST(UnifiedHandle, DetectClassifiesByLeadingByte) {
  const proto::request_view text = proto::request_view::detect("QUERY x=1");
  EXPECT_EQ(text.framing(), proto::request_view::kind::text);
  EXPECT_EQ(text.bytes(), "QUERY x=1");

  const std::string frame = v3::encode_promote_frame();
  const proto::request_view bin = proto::request_view::detect(frame);
  EXPECT_EQ(bin.framing(), proto::request_view::kind::binary);
  EXPECT_EQ(bin.bytes(), frame);

  // An explicitly-classified view overrides detection: a session that
  // negotiated text framing can force a magic-leading line through the
  // text path.
  const std::string odd = "\xB3 looks binary but is text";
  EXPECT_EQ(proto::request_view::text(odd).framing(),
            proto::request_view::kind::text);
  EXPECT_EQ(proto::request_view::detect(odd).framing(),
            proto::request_view::kind::binary);
}

TEST(UnifiedHandle, AdvertisedVersionIsFixedAtConstruction) {
  corpus_fixture fx;
  // server_options replaced the set_advertised_version() mutable knob:
  // the advertised version is a construction-time property.
  proto::coordinator_server v2(fx.coord, {.advertised_version = 2});
  EXPECT_EQ(v2.advertised_version(), 2u);
  EXPECT_EQ(fx.server.advertised_version(), proto::wire_version);

  const std::string hello = proto::encode(proto::hello_request{3});
  proto::reply_buffer rb;
  v2.handle(proto::request_view::text(hello), rb);
  EXPECT_EQ(rb.view(), "HELLO ver=2 min=1");
  rb.clear();
  fx.server.handle(proto::request_view::text(hello), rb);
  EXPECT_EQ(rb.view(), "HELLO ver=3 min=1");
}

}  // namespace
}  // namespace wiscape
