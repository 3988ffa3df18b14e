// Epoll network tier: one nonblocking event loop multiplexing thousands of
// concurrent NDJSON connections (TCP and/or Unix-domain listeners) over
// the shared dispatch path (serve/transport.hpp dispatch_line) and the
// sharded GenerationServer.
//
// Design:
//   - The event loop owns every connection fd. Reads are nonblocking with
//     a per-connection input buffer; complete lines dispatch inline
//     (control ops answer immediately, generation ops submit async).
//     A read ERROR discards the partial tail — a half-received request
//     never executes (same contract as LineReader).
//   - Responses NEVER block an executor: a completion appends one line to
//     the connection's sink under a short mutex and signals the loop via
//     eventfd. The loop transfers sink lines into the connection's
//     outbound buffer and writes nonblocking, arming EPOLLOUT while data
//     remains. No mutex is ever held across a write().
//   - Backpressure is per connection and BOUNDED: when a slow consumer's
//     outbound buffer exceeds max_outbuf_bytes the connection is dropped
//     (serve.net.overflow_disconnects); everyone else is unaffected.
//   - A client that half-closes (EOF) after sending requests still
//     receives its in-flight responses; the connection closes once its
//     outstanding work and outbound buffer drain.
//   - {"op":"shutdown"} (when allowed) ends the loop: the server drains
//     gracefully, every connection's buffered responses flush, the
//     requester gets the {"draining":true} ack last.
//
// Listener safety: add_uds_listener PROBES the socket path with connect()
// first and refuses to start when a live server answers — two instances
// racing on one path can no longer clobber each other; only a genuinely
// stale socket file (connection refused) is unlinked. add_tcp_listener
// supports port 0 (kernel-assigned, reported back) for tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"

namespace pp::serve {

struct NetServerConfig {
  int backlog = 512;                     ///< listen(2) backlog (bursts)
  std::size_t max_connections = 4096;    ///< concurrent-connection cap
  std::size_t max_outbuf_bytes = 8u << 20;  ///< slow-consumer bound
};

struct NetRunResult {
  bool shutdown = false;        ///< a shutdown op ended the loop
  std::uint64_t handled = 0;    ///< request lines dispatched
  std::uint64_t accepted = 0;   ///< connections accepted over the run
};

namespace detail {
struct Wake;
class ConnSink;
}  // namespace detail

class NetServer {
 public:
  NetServer(GenerationServer& server, ModelRegistry& registry,
            NetServerConfig cfg = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds + listens on a Unix socket path. Probes the path with connect()
  /// first: a live server answering means refusal (returns false, *err
  /// explains); a stale file is unlinked and replaced.
  bool add_uds_listener(const std::string& path, std::string* err);

  /// Binds + listens on host:port. Host may be a dotted quad, "localhost",
  /// or "" / "0.0.0.0" for any interface; port 0 asks the kernel and the
  /// chosen port is written to *bound_port.
  bool add_tcp_listener(const std::string& host, int port, std::string* err,
                        int* bound_port = nullptr);

  /// Serves until `stop` returns true (checked a few times per second) or
  /// an allowed {"op":"shutdown"} arrives. On shutdown the server drains
  /// and every connection's pending output flushes before returning. Needs
  /// at least one listener.
  NetRunResult run(const std::function<bool()>& stop);

 private:
  struct Conn;

  bool epoll_add(int fd, std::uint32_t events);
  bool epoll_mod(int fd, std::uint32_t events);
  void accept_ready(int listener);
  void close_conn(int fd);
  /// Nonblocking flush; false = fatal write error (caller closes).
  bool flush_conn(Conn& c);
  /// Moves a sink's completed lines into the conn outbuf; enforces the
  /// outbound bound. false = connection must drop.
  bool drain_sink_into(Conn& c);
  /// Sink -> outbuf -> socket, EPOLLOUT arming and half-close reaping for
  /// one connection. Returns false when the connection was closed.
  bool service_conn(int fd);
  void read_ready(int fd);
  void update_conn_gauge();

  GenerationServer& server_;
  ModelRegistry& registry_;
  NetServerConfig cfg_;

  int epfd_ = -1;
  std::shared_ptr<detail::Wake> wake_;
  std::vector<int> listeners_;
  std::vector<std::string> uds_paths_;  ///< unlinked on destruction
  std::map<int, std::unique_ptr<Conn>> conns_;

  bool shutdown_requested_ = false;
  std::uint64_t shutdown_conn_fd_ = 0;
  std::uint64_t shutdown_id_ = 0;
  std::uint64_t handled_ = 0;
  std::uint64_t accepted_total_ = 0;
};

}  // namespace pp::serve
