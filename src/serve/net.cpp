#include "serve/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <mutex>

#include "obs/metrics.hpp"

namespace pp::serve {

namespace detail {

/// The executor->event-loop doorbell. Sinks hold it via shared_ptr, so a
/// late completion after the NetServer died finds alive == false instead
/// of a dangling eventfd.
struct Wake {
  int evfd = -1;
  std::mutex m;
  std::vector<std::shared_ptr<ConnSink>> dirty;
  bool alive = true;
  ~Wake() {
    if (evfd >= 0) ::close(evfd);
  }
};

/// Per-connection response sink. Completions (any thread) append a
/// serialized line under a short mutex and ring the doorbell — never a
/// blocking write, never a lock held across I/O. The event loop transfers
/// lines into the connection's outbound buffer on its own thread.
class ConnSink final : public ResponseSink,
                      public std::enable_shared_from_this<ConnSink> {
 public:
  ConnSink(std::shared_ptr<Wake> wake, int fd)
      : wake_(std::move(wake)), fd_(fd) {}

  void write(const obs::Json& j) override { push(j.dump()); }
  void begin_async() override { outstanding_.fetch_add(1); }
  void end_async(const obs::Json& j) override {
    push(j.dump());
    outstanding_.fetch_sub(1);
  }

  void push(std::string line) {
    {
      std::lock_guard<std::mutex> lk(m_);
      if (dead_) return;  // connection is gone; drop the late completion
      pending_.push_back(std::move(line));
    }
    std::lock_guard<std::mutex> lk(wake_->m);
    if (!wake_->alive) return;
    wake_->dirty.push_back(shared_from_this());
    std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_->evfd, &one, sizeof(one));
  }

  std::vector<std::string> take() {
    std::lock_guard<std::mutex> lk(m_);
    std::vector<std::string> out;
    out.swap(pending_);
    return out;
  }

  bool has_pending() const {
    std::lock_guard<std::mutex> lk(m_);
    return !pending_.empty();
  }

  void kill() {
    std::lock_guard<std::mutex> lk(m_);
    dead_ = true;
    pending_.clear();
  }

  int fd() const { return fd_; }
  int outstanding() const { return outstanding_.load(); }

 private:
  std::shared_ptr<Wake> wake_;
  const int fd_;
  mutable std::mutex m_;
  std::vector<std::string> pending_;
  bool dead_ = false;
  std::atomic<int> outstanding_{0};
};

}  // namespace detail

namespace {

/// A connection whose buffered input passes this length without a newline
/// is dropped as a read error.
constexpr std::size_t kMaxLineBytes = 4u << 20;

struct NetMetrics {
  obs::Gauge& connections = obs::metrics().gauge("serve.net.connections");
  obs::Counter& accepted = obs::metrics().counter("serve.net.accepted_conns");
  obs::Counter& refused = obs::metrics().counter("serve.net.refused_conns");
  obs::Counter& overflow =
      obs::metrics().counter("serve.net.overflow_disconnects");
  obs::Counter& read_errors = obs::metrics().counter("serve.net.read_errors");
  obs::Counter& lines = obs::metrics().counter("serve.net.lines");
};

NetMetrics& net_metrics() {
  static NetMetrics* m = new NetMetrics;
  return *m;
}

bool set_errno_msg(std::string* err, const std::string& what) {
  if (err) *err = what + ": " + std::strerror(errno);
  return false;
}

}  // namespace

struct NetServer::Conn {
  int fd = -1;
  std::shared_ptr<detail::ConnSink> sink;
  std::string inbuf;   ///< bytes read, not yet split into lines
  std::string outbuf;  ///< serialized responses awaiting the socket
  std::size_t outoff = 0;  ///< bytes of outbuf already written
  bool want_write = false;  ///< EPOLLOUT currently armed
  bool read_closed = false;  ///< client half-closed; flush then close
  std::size_t out_pending() const { return outbuf.size() - outoff; }
};

NetServer::NetServer(GenerationServer& server, ModelRegistry& registry,
                     NetServerConfig cfg)
    : server_(server), registry_(registry), cfg_(cfg) {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_ = std::make_shared<detail::Wake>();
  wake_->evfd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epfd_ >= 0 && wake_->evfd >= 0) epoll_add(wake_->evfd, EPOLLIN);
}

NetServer::~NetServer() {
  for (auto& kv : conns_) {
    kv.second->sink->kill();
    ::close(kv.first);
  }
  conns_.clear();
  update_conn_gauge();
  for (int fd : listeners_) ::close(fd);
  for (const std::string& p : uds_paths_) ::unlink(p.c_str());
  {
    // Completions still in flight must stop ringing the doorbell.
    std::lock_guard<std::mutex> lk(wake_->m);
    wake_->alive = false;
    wake_->dirty.clear();
  }
  if (epfd_ >= 0) ::close(epfd_);
}

bool NetServer::epoll_add(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  return ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

bool NetServer::epoll_mod(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  return ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) == 0;
}

bool NetServer::add_uds_listener(const std::string& path, std::string* err) {
  if (epfd_ < 0) return set_errno_msg(err, "epoll unavailable");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    if (err) *err = "socket path empty or too long: '" + path + "'";
    return false;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  // Stale-socket safety: probe before clobbering. A live server ACCEPTS the
  // probe — refuse to start instead of stealing its endpoint. Only a dead
  // file (connection refused / no such file) is safe to unlink.
  int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (probe >= 0) {
    const bool live =
        ::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    ::close(probe);
    if (live) {
      if (err)
        *err = "refusing to start: another server is live on '" + path + "'";
      return false;
    }
  }
  ::unlink(path.c_str());

  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return set_errno_msg(err, "socket(AF_UNIX)");
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    set_errno_msg(err, "bind('" + path + "')");
    ::close(fd);
    return false;
  }
  if (::listen(fd, cfg_.backlog) != 0) {
    set_errno_msg(err, "listen('" + path + "')");
    ::close(fd);
    ::unlink(path.c_str());
    return false;
  }
  if (!epoll_add(fd, EPOLLIN)) {
    set_errno_msg(err, "epoll_ctl(listener)");
    ::close(fd);
    ::unlink(path.c_str());
    return false;
  }
  listeners_.push_back(fd);
  uds_paths_.push_back(path);
  return true;
}

bool NetServer::add_tcp_listener(const std::string& host, int port,
                                 std::string* err, int* bound_port) {
  if (epfd_ < 0) return set_errno_msg(err, "epoll unavailable");
  if (port < 0 || port > 65535) {
    if (err) *err = "port must be in [0, 65535], got " + std::to_string(port);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const std::string h = host == "localhost" ? "127.0.0.1" : host;
  if (h.empty() || h == "0.0.0.0") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, h.c_str(), &addr.sin_addr) != 1) {
    if (err)
      *err = "host must be a dotted quad, 'localhost' or '0.0.0.0', got '" +
             host + "'";
    return false;
  }
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return set_errno_msg(err, "socket(AF_INET)");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    set_errno_msg(err, "bind(" + host + ":" + std::to_string(port) + ")");
    ::close(fd);
    return false;
  }
  if (::listen(fd, cfg_.backlog) != 0) {
    set_errno_msg(err, "listen");
    ::close(fd);
    return false;
  }
  if (bound_port) {
    sockaddr_in bound{};
    socklen_t blen = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen) == 0)
      *bound_port = static_cast<int>(ntohs(bound.sin_port));
  }
  if (!epoll_add(fd, EPOLLIN)) {
    set_errno_msg(err, "epoll_ctl(listener)");
    ::close(fd);
    return false;
  }
  listeners_.push_back(fd);
  return true;
}

void NetServer::update_conn_gauge() {
  net_metrics().connections.set(static_cast<double>(conns_.size()));
}

void NetServer::accept_ready(int listener) {
  NetMetrics& nm = net_metrics();
  for (;;) {
    int fd = ::accept4(listener, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN, or a transient accept error — the loop retries
    }
    if (conns_.size() >= cfg_.max_connections) {
      // Structured refusal, best effort: the client sees WHY instead of a
      // bare RST, but a full socket buffer must not stall the loop.
      static const std::string kRefusal =
          "{\"id\":0,\"ok\":false,\"error\":{\"code\":\"overloaded\","
          "\"message\":\"connection limit reached\"}}\n";
      [[maybe_unused]] ssize_t n =
          ::send(fd, kRefusal.data(), kRefusal.size(), MSG_NOSIGNAL);
      ::close(fd);
      nm.refused.add(1);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));  // UDS: noop
    auto c = std::make_unique<Conn>();
    c->fd = fd;
    c->sink = std::make_shared<detail::ConnSink>(wake_, fd);
    if (!epoll_add(fd, EPOLLIN)) {
      ::close(fd);
      continue;
    }
    conns_[fd] = std::move(c);
    ++accepted_total_;
    nm.accepted.add(1);
    update_conn_gauge();
  }
}

void NetServer::close_conn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  it->second->sink->kill();
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_.erase(it);
  update_conn_gauge();
}

bool NetServer::flush_conn(Conn& c) {
  while (c.outoff < c.outbuf.size()) {
    ssize_t n = ::send(c.fd, c.outbuf.data() + c.outoff,
                       c.outbuf.size() - c.outoff, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    c.outoff += static_cast<std::size_t>(n);
  }
  if (c.outoff == c.outbuf.size()) {
    c.outbuf.clear();
    c.outoff = 0;
  } else if (c.outoff > (64u << 10)) {
    c.outbuf.erase(0, c.outoff);  // compact occasionally, not per write
    c.outoff = 0;
  }
  return true;
}

bool NetServer::drain_sink_into(Conn& c) {
  for (std::string& line : c.sink->take()) {
    c.outbuf += line;
    c.outbuf += '\n';
  }
  if (c.out_pending() > cfg_.max_outbuf_bytes) {
    net_metrics().overflow.add(1);
    return false;  // slow consumer: bounded buffer wins, connection loses
  }
  return true;
}

/// Moves sink output toward the socket and reconciles EPOLLOUT / lifetime.
/// Returns false when the connection was closed.
bool NetServer::service_conn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return false;
  Conn& c = *it->second;
  if (!drain_sink_into(c) || !flush_conn(c)) {
    close_conn(fd);
    return false;
  }
  const bool has_out = c.out_pending() > 0;
  if (has_out != c.want_write) {
    c.want_write = has_out;
    epoll_mod(fd, (c.read_closed ? 0u : EPOLLIN) |
                      (c.want_write ? EPOLLOUT : 0u));
  }
  // A half-closed client stays connected exactly until its in-flight
  // responses have been written; then the server closes its side too.
  if (!has_out && c.read_closed && c.sink->outstanding() == 0 &&
      !c.sink->has_pending()) {
    close_conn(fd);
    return false;
  }
  return true;
}

void NetServer::read_ready(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& c = *it->second;
  NetMetrics& nm = net_metrics();

  char buf[16384];
  // Bounded read burst per wake: level-triggered epoll re-notifies, so one
  // firehose connection cannot starve the rest of the loop.
  for (int burst = 0; burst < 16; ++burst) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      c.inbuf.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      c.read_closed = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    // Read ERROR: the buffered tail is a half-received line that must
    // never execute (same contract as LineReader). Drop it, drop the conn.
    nm.read_errors.add(1);
    close_conn(fd);
    return;
  }
  if (c.inbuf.size() > kMaxLineBytes &&
      c.inbuf.find('\n') == std::string::npos) {
    nm.read_errors.add(1);
    close_conn(fd);
    return;
  }

  std::size_t start = 0, nl;
  while (!shutdown_requested_ &&
         (nl = c.inbuf.find('\n', start)) != std::string::npos) {
    const std::string line = c.inbuf.substr(start, nl - start);
    start = nl + 1;
    if (line.empty()) continue;
    ++handled_;
    nm.lines.add(1);
    DispatchResult r = dispatch_line(line, server_, registry_, c.sink);
    if (r.shutdown) {
      shutdown_requested_ = true;
      shutdown_conn_fd_ = static_cast<std::uint64_t>(fd);
      shutdown_id_ = r.shutdown_id;
    }
  }
  c.inbuf.erase(0, start);
  if (c.read_closed) {
    // Clean EOF delivers a final unterminated line (LineReader semantics);
    // only a read ERROR discards it.
    if (!c.inbuf.empty() && !shutdown_requested_) {
      ++handled_;
      nm.lines.add(1);
      DispatchResult r = dispatch_line(c.inbuf, server_, registry_, c.sink);
      if (r.shutdown) {
        shutdown_requested_ = true;
        shutdown_conn_fd_ = static_cast<std::uint64_t>(fd);
        shutdown_id_ = r.shutdown_id;
      }
      c.inbuf.clear();
    }
    epoll_mod(fd, c.want_write ? EPOLLOUT : 0u);
  }
  service_conn(fd);
}

NetRunResult NetServer::run(const std::function<bool()>& stop) {
  NetRunResult result;
  if (epfd_ < 0 || wake_->evfd < 0 || listeners_.empty()) return result;
  server_.start();

  std::vector<epoll_event> events(512);
  while (!shutdown_requested_) {
    if (stop && stop()) break;
    int n = ::epoll_wait(epfd_, events.data(),
                         static_cast<int>(events.size()), 200);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n && !shutdown_requested_; ++i) {
      const epoll_event& ev = events[i];
      const int fd = ev.data.fd;
      if (fd == wake_->evfd) {
        std::uint64_t drain;
        while (::read(wake_->evfd, &drain, sizeof(drain)) > 0) {
        }
        std::vector<std::shared_ptr<detail::ConnSink>> dirty;
        {
          std::lock_guard<std::mutex> lk(wake_->m);
          dirty.swap(wake_->dirty);
        }
        for (const auto& sink : dirty) {
          auto cit = conns_.find(sink->fd());
          // fd numbers recycle — only service the sink's OWN connection.
          if (cit != conns_.end() && cit->second->sink == sink)
            service_conn(sink->fd());
        }
        continue;
      }
      if (std::find(listeners_.begin(), listeners_.end(), fd) !=
          listeners_.end()) {
        accept_ready(fd);
        continue;
      }
      if (ev.events & (EPOLLERR | EPOLLHUP)) {
        close_conn(fd);
        continue;
      }
      if (ev.events & EPOLLIN) read_ready(fd);
      if ((ev.events & EPOLLOUT) && conns_.count(fd)) service_conn(fd);
    }
    // Periodic sweep: half-closed connections whose last completion landed
    // between wakes (outstanding() ordering) close within one tick.
    for (auto it = conns_.begin(); it != conns_.end();) {
      const int fd = it->first;
      ++it;  // service_conn may erase
      Conn* c = conns_.count(fd) ? conns_[fd].get() : nullptr;
      if (c && c->read_closed) service_conn(fd);
    }
  }

  if (shutdown_requested_) {
    // Graceful drain: every accepted request completes (responses land in
    // the sinks), then every connection's buffered output is flushed —
    // the requester's {"draining":true} ack written last.
    server_.shutdown();
    auto rit = conns_.find(static_cast<int>(shutdown_conn_fd_));
    if (rit != conns_.end()) rit->second->sink->write(shutdown_ack(shutdown_id_));
    for (auto& kv : conns_) {
      Conn& c = *kv.second;
      for (std::string& line : c.sink->take()) {
        c.outbuf += line;
        c.outbuf += '\n';
      }
      // Final flush may block briefly on a full socket buffer; bounded by
      // a short poll so one dead client cannot wedge shutdown.
      for (int spins = 0; spins < 50 && c.out_pending() > 0; ++spins) {
        if (!flush_conn(c)) break;
        if (c.out_pending() > 0) {
          pollfd p{c.fd, POLLOUT, 0};
          ::poll(&p, 1, 100);
        }
      }
    }
  }

  for (auto& kv : conns_) {
    kv.second->sink->kill();
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, kv.first, nullptr);
    ::close(kv.first);
  }
  conns_.clear();
  update_conn_gauge();

  result.shutdown = shutdown_requested_;
  result.handled = handled_;
  result.accepted = accepted_total_;
  return result;
}

}  // namespace pp::serve
