// The serving stack under test and the generator's connections to it.
//
// Every workload runs the same shape: a 2-shard asynchronous
// sharded_coordinator behind coordinator_server with a repl::leader
// attached, served by a 1-loop tcp_server whose shed policy is bound to the
// coordinator's ingest_saturation. durable_ingest adds the WAL-backed
// durable_log to the leader and sets up by recovering a pre-built
// WAL/snapshot pair instead of loading warm records.
#pragma once

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <sched.h>
#include <sys/syscall.h>

#include <deque>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/durable_log.h"
#include "core/sharded_coordinator.h"
#include "inputs.h"
#include "net/server.h"
#include "proto/server.h"
#include "repl/replica.h"

namespace perfbench {

/// What a request in flight was, so its positional reply can be judged.
enum class req : std::uint8_t {
  checkin, report, query, queryb, probe_report, probe_query, reportb, epoch
};

struct pending {
  req kind;
  std::int64_t due_ns;
  std::uint32_t aux;
};

/// One nonblocking client connection with its send/receive buffers and the
/// FIFO of requests awaiting replies (replies are positional).
struct conn {
  int fd = -1;
  std::string out;
  std::size_t out_pos = 0;
  std::string in;
  std::size_t in_pos = 0;
  std::deque<pending> q;

  conn() = default;
  conn(const conn&) = delete;
  conn& operator=(const conn&) = delete;
  conn(conn&& o) noexcept
      : fd(std::exchange(o.fd, -1)),
        out(std::move(o.out)),
        out_pos(o.out_pos),
        in(std::move(o.in)),
        in_pos(o.in_pos),
        q(std::move(o.q)) {}
  conn& operator=(conn&&) = delete;
  ~conn() {
    if (fd >= 0) ::close(fd);
  }
};

/// Connects to the loopback port, negotiates HELLO ver=3 with blocking I/O,
/// then switches the socket to nonblocking.
inline conn connect_hello(std::uint16_t port) {
  conn c;
  c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (c.fd < 0) throw std::runtime_error("socket failed");
  const int one = 1;
  ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  // A fixed receive buffer: kernel autotuning would otherwise size it
  // differently from run to run.
  const int rcvbuf = 4 << 20;
  ::setsockopt(c.fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    throw std::runtime_error("connect failed");
  }
  const std::string hello = "HELLO ver=3\n";
  if (::send(c.fd, hello.data(), hello.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(hello.size())) {
    throw std::runtime_error("HELLO send failed");
  }
  std::string reply;
  char ch = 0;
  while (::recv(c.fd, &ch, 1, 0) == 1 && ch != '\n') reply.push_back(ch);
  if (reply.rfind("HELLO ver=3", 0) != 0) {
    throw std::runtime_error("HELLO refused: " + reply);
  }
  ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  return c;
}

/// Feeds one complete request through the in-process entry point and
/// returns the reply bytes.
inline std::string handle_bytes(proto::coordinator_server& s,
                                std::string_view frame) {
  proto::reply_buffer rb;
  s.handle(proto::request_view::detect(frame), rb);
  return std::string(rb.view());
}

/// A replica that mirrors the leader's epoch stream.
struct replica {
  std::unique_ptr<core::sharded_coordinator> coord;
  std::unique_ptr<repl::follower> fol;

  explicit replica(const inputs& in)
      : coord(std::make_unique<core::sharded_coordinator>(
            in.w.grid, in.w.networks, sync_config(), in.seed)),
        fol(std::make_unique<repl::follower>(*coord)) {}
};

struct stack {
  std::unique_ptr<core::sharded_coordinator> coord;
  std::unique_ptr<core::durable_log> wal;
  std::unique_ptr<proto::coordinator_server> server;
  std::unique_ptr<repl::leader> lead;
  std::unique_ptr<net::tcp_server> tcp;
  std::vector<conn> conns;
  std::uint64_t warm_records = 0;   // records ingested during setup
  std::uint64_t recovered_seq = 0;  // durable_log::recover's answer

  stack() = default;
  stack(const stack&) = delete;
  stack& operator=(const stack&) = delete;
  ~stack() {
    conns.clear();
    if (tcp) tcp->stop();
    tcp.reset();
    if (coord) coord->flush();
    lead.reset();  // detaches the epoch tap while the coordinator lives
    server.reset();
    coord.reset();
    wal.reset();
  }
};

/// Replays every pool frame at cycle 0 (the state setup loads).
inline void rewind_bulk(inputs& in) {
  for (std::size_t f = 0; f < in.bulk_frames.size(); ++f) in.patch(f, 0);
}

/// Feeds warm requests through the in-process entry point: the fleet's warm
/// records, the probe streams' opening reports and, for the bulk
/// workloads, frames [from, to) of the pool at cycle 0. Returns records fed.
inline std::uint64_t warm_feed(proto::coordinator_server& s, const inputs& in,
                               bool fleet, std::size_t from, std::size_t to) {
  std::uint64_t n = 0;
  auto feed = [&](std::string_view frame) {
    const std::string reply = handle_bytes(s, frame);
    const auto hdr = proto::v3::peek_header(reply);
    if (!hdr || hdr->op != proto::v3::opcode::ack) {
      throw std::runtime_error("warm load refused");
    }
    n += proto::v3::decode_ack_frame(reply).count;
  };
  if (fleet) {
    for (const auto& f : in.fleet_warm_frames) feed(f);
    feed(proto::v3::encode_report_batch_frame(in.probe_open));
  }
  for (std::size_t f = from; f < to; ++f) feed(in.bulk_frames[f]);
  return n;
}

inline std::string wal_dir(const std::string& run_dir, const inputs& in) {
  return run_dir + "/wal-" + name_of(in.wl) + "-" +
         std::to_string(::getpid());
}

/// durable_ingest's untimed preparation: a leader with a WAL ingests the
/// warm load, checkpoints halfway through the bulk pass, and logs the rest
/// to the WAL. Returns the follower that tracked it (in sync at the last
/// logged sequence, which `last_seq` receives).
inline replica prebuild_durable(const inputs& in, const std::string& dir,
                                std::uint64_t& last_seq) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  replica rep(in);
  core::sharded_coordinator a(in.w.grid, in.w.networks, serving_config(),
                              in.seed);
  core::durable_log dl(dir);
  repl::leader la(a, repl::default_log_capacity, &dl);
  proto::coordinator_server sa(a);
  sa.attach_replication(&la);
  const repl::transport to_leader = [&](std::string_view f) {
    return handle_bytes(sa, f);
  };
  auto sync_follower = [&] {
    a.flush();
    if (!rep.fol->poll(to_leader)) throw std::runtime_error("prebuild pull");
  };
  const std::size_t half = in.bulk_frames.size() / 2;
  warm_feed(sa, in, true, 0, half);
  sync_follower();
  dl.checkpoint(a);
  const std::uint64_t fenced = la.log().last_seq();
  warm_feed(sa, in, false, half, in.bulk_frames.size());
  sync_follower();
  last_seq = la.log().last_seq();
  if (last_seq <= fenced) {
    throw std::runtime_error("prebuild logged no epoch after the checkpoint");
  }
  a.stop();
  // Write the pre-built pair back now, so the kernel's writeback of it does
  // not compete with the timed window.
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::syncfs(dfd);
    ::close(dfd);
  }
  return rep;
}

/// Builds the stack through "listening and connected". `conns` sessions are
/// opened and negotiated.
inline std::unique_ptr<stack> setup(const inputs& in, const std::string& dir,
                                    std::size_t conns) {
  auto st = std::make_unique<stack>();
  st->coord = std::make_unique<core::sharded_coordinator>(
      in.w.grid, in.w.networks, serving_config(), in.seed);
  st->server = std::make_unique<proto::coordinator_server>(*st->coord);
  if (in.wl == workload::durable_ingest) {
    st->wal = std::make_unique<core::durable_log>(dir);
    st->recovered_seq = st->wal->recover(*st->coord);
  } else {
    st->warm_records = warm_feed(*st->server, in, true, 0,
                                 in.bulk_frames.size());
    st->coord->flush();
  }
  st->lead = std::make_unique<repl::leader>(
      *st->coord, repl::default_log_capacity, st->wal.get());
  if (st->wal) st->lead->log().reset(st->recovered_seq + 1);
  st->server->attach_replication(st->lead.get());
  net::server_config nc;
  nc.event_loops = kEventLoops;
  core::sharded_coordinator* c = st->coord.get();
  nc.ingest_saturation = [c] { return c->ingest_saturation(); };
  st->tcp = std::make_unique<net::tcp_server>(*st->server, nc);
  st->tcp->start();
  for (std::size_t i = 0; i < conns; ++i) {
    st->conns.push_back(connect_hello(st->tcp->port()));
  }
  return st;
}

/// Gives every thread of the process a core of its own: the generator
/// (this thread) core 0 and the others -- the drain workers, then the event
/// loop, in creation order -- the next cores. Without it the scheduler
/// migrates the busy-polling generator and the loop between runs, and
/// microsecond medians move with it.
inline void pin_threads() {
  const long self = ::syscall(SYS_gettid);
  std::vector<long> others;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task")) {
    const long tid = std::stol(e.path().filename().string());
    if (tid != self) others.push_back(tid);
  }
  std::sort(others.begin(), others.end());
  const long cores = std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN));
  auto pin = [&](long tid, long core) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<int>(core % cores), &set);
    ::sched_setaffinity(static_cast<pid_t>(tid), sizeof set, &set);
  };
  pin(self, 0);
  for (std::size_t i = 0; i < others.size(); ++i) {
    pin(others[i], static_cast<long>(i) + 1);
  }
}

/// Lets this thread run on every core again (threads it creates inherit it).
inline void unpin_self() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const long cores = std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN));
  for (long c = 0; c < cores; ++c) CPU_SET(static_cast<int>(c), &set);
  ::sched_setaffinity(0, sizeof set, &set);
}

}  // namespace perfbench
