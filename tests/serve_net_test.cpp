// Tier-1 tests for the serve network tier (src/serve/net.hpp), the
// generation cache and executor sharding (src/serve/server.hpp), and the
// LineReader error contract (src/serve/transport.hpp):
//   - a read ERROR mid-line must DISCARD the partial tail (a truncated
//     request must never execute) and be distinguishable from clean EOF;
//   - cache hits must be bitwise identical to the cold generation they
//     shadow and must bypass the executor;
//   - the epoll tier must multiplex 100+ concurrent TCP clients, survive
//     slow consumers without blocking anyone, honour half-close, refuse a
//     Unix socket path owned by a LIVE server but reclaim a stale one;
//   - under a 1000+ client stampede on a small admission queue, every
//     client gets an answer, every cache replay is byte-equal, and both
//     executor shards serve.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.hpp"
#include "serve/cache.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"

namespace pp::serve {
namespace {

ModelSpec tiny_spec(const std::string& key = "t") {
  ModelSpec spec;
  spec.key = key;
  spec.preset = "sd1";
  spec.clip_size = 16;
  spec.timesteps = 40;
  spec.sample_steps = 4;
  spec.base_channels = 6;
  spec.time_dim = 16;
  return spec;
}

std::shared_ptr<ModelRegistry> tiny_registry() {
  auto registry = std::make_shared<ModelRegistry>();
  registry->load(tiny_spec());
  return registry;
}

GenRequest sample_req(std::uint64_t id, std::uint64_t seed,
                      const std::string& model = "t") {
  GenRequest req;
  req.id = id;
  req.op = GenRequest::Op::kSample;
  req.model = model;
  req.seed = seed;
  req.count = 1;
  req.finish = true;
  return req;
}

// ---- LineReader error contract -----------------------------------------

// A read() failure mid-line is the wire equivalent of a torn request: the
// buffered partial tail must be DISCARDED, not served as a complete line.
// (The pre-fix reader treated any error as EOF and then delivered the
// partial buffer — a half-received request could execute.) The injected
// error is a receive timeout (SO_RCVTIMEO -> EAGAIN), which is not EINTR
// and not EOF.
TEST(ServeNet, LineReaderErrorDiscardsPartialTail) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  timeval tv{0, 50 * 1000};  // 50 ms
  ASSERT_EQ(::setsockopt(sv[0], SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)), 0);
  const char* wire = "complete\npartial-tail";
  ASSERT_EQ(::write(sv[1], wire, std::strlen(wire)),
            static_cast<ssize_t>(std::strlen(wire)));

  LineReader reader(sv[0]);
  std::string line;
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "complete");
  // The peer goes silent WITHOUT closing: the next read times out (EAGAIN).
  line = "sentinel";
  EXPECT_FALSE(reader.next(line));
  EXPECT_TRUE(reader.failed());
  EXPECT_NE(line, "partial-tail") << "torn request served as a full line";
  ::close(sv[0]);
  ::close(sv[1]);
}

// Clean EOF keeps the old lenient contract: a final unterminated line is
// still delivered, and failed() stays false.
TEST(ServeNet, LineReaderCleanEofDeliversTail) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const char* wire = "one\ntail-no-newline";
  ASSERT_EQ(::write(sv[1], wire, std::strlen(wire)),
            static_cast<ssize_t>(std::strlen(wire)));
  ::close(sv[1]);

  LineReader reader(sv[0]);
  std::string line;
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "one");
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "tail-no-newline");
  EXPECT_FALSE(reader.next(line));
  EXPECT_FALSE(reader.failed());
  ::close(sv[0]);
}

// ---- generation cache ---------------------------------------------------

TEST(ServeNet, CacheHitBitwiseIdenticalAndBypassesExecutor) {
  auto registry = tiny_registry();
  ServerConfig cfg;
  cfg.cache_entries = 16;
  GenerationServer server(registry, cfg);
  server.start();

  GenResponse cold = server.submit(sample_req(1, 42)).get();
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.cached);
  EXPECT_GT(cold.batch_samples, 0);

  GenResponse hit = server.submit(sample_req(2, 42)).get();
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.cached);
  EXPECT_EQ(hit.id, 2u);
  EXPECT_EQ(hit.batch_samples, 0) << "a cache hit must not run a batch";
  ASSERT_EQ(hit.patterns.size(), cold.patterns.size());
  for (std::size_t i = 0; i < cold.patterns.size(); ++i)
    EXPECT_EQ(hit.patterns[i].to_ascii(), cold.patterns[i].to_ascii());
  ASSERT_EQ(hit.legal.size(), cold.legal.size());
  for (std::size_t i = 0; i < cold.legal.size(); ++i)
    EXPECT_EQ(hit.legal[i], cold.legal[i]);

  // Any knob in the key — here the seed — misses.
  GenResponse other = server.submit(sample_req(3, 43)).get();
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other.cached);
  server.shutdown();
}

TEST(ServeNet, CacheKeyedOnStepsEtaAndModelGeneration) {
  auto registry = tiny_registry();
  ServerConfig cfg;
  cfg.cache_entries = 16;
  GenerationServer server(registry, cfg);
  server.start();

  ASSERT_TRUE(server.submit(sample_req(1, 7)).get().ok());
  GenRequest steps = sample_req(2, 7);
  steps.steps = 2;
  GenResponse r = server.submit(std::move(steps)).get();
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.cached) << "different sample_steps must not hit";
  GenRequest eta = sample_req(3, 7);
  eta.eta = 0.5;
  r = server.submit(std::move(eta)).get();
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.cached) << "different eta must not hit";

  // Hot-swapping the model bumps the generation: stale entries cannot hit.
  registry->load(tiny_spec());
  r = server.submit(sample_req(4, 7)).get();
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.cached) << "reloaded model must invalidate cache hits";
  server.shutdown();
}

TEST(ServeNet, CacheDisabledByDefault) {
  auto registry = tiny_registry();
  GenerationServer server(registry);  // cache_entries = 0
  server.start();
  ASSERT_TRUE(server.submit(sample_req(1, 7)).get().ok());
  GenResponse again = server.submit(sample_req(2, 7)).get();
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.cached);
  EXPECT_GT(again.batch_samples, 0);
  server.shutdown();
}

TEST(ServeNet, CacheLruEvicts) {
  GenerationCache cache(2);
  GenResponse r;
  r.patterns.emplace_back(4, 4, 0);
  cache.insert("a", r);
  cache.insert("b", r);
  GenResponse out;
  ASSERT_TRUE(cache.lookup("a", &out));  // refresh "a": "b" becomes LRU
  cache.insert("c", r);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.lookup("a", &out));
  EXPECT_FALSE(cache.lookup("b", &out));
  EXPECT_TRUE(cache.lookup("c", &out));
  EXPECT_EQ(cache.evictions(), 1u);
}

// ---- executor sharding --------------------------------------------------

/// Each of the server's `shards` executor shards completed some request.
void expect_every_shard_served(const GenerationServer& server,
                               std::size_t shards) {
  obs::Json stats = server.stats_json();
  const obs::Json* shard_state = stats.find("shard_state");
  ASSERT_NE(shard_state, nullptr);
  ASSERT_EQ(shard_state->size(), shards);
  for (std::size_t s = 0; s < shards; ++s) {
    const obs::Json* served = shard_state->at(s).find("served");
    ASSERT_NE(served, nullptr);
    EXPECT_GT(served->as_number(), 0.0) << "shard " << s << " starved";
  }
}

TEST(ServeNet, ShardsSpreadModelsAndServeAll) {
  auto registry = tiny_registry();
  registry->load(tiny_spec("u"));
  ServerConfig cfg;
  cfg.shards = 2;
  GenerationServer server(registry, cfg);
  ASSERT_EQ(server.shard_count(), 2u);
  server.start();
  std::vector<std::future<GenResponse>> futs;
  for (int i = 0; i < 6; ++i)
    futs.push_back(
        server.submit(sample_req(i + 1, i, (i % 2 != 0) ? "u" : "t")));
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());
  // Both entries saw traffic, so with round-robin routing both shards
  // must have executed work.
  expect_every_shard_served(server, 2);
  server.shutdown();
}

// ---- epoll network tier -------------------------------------------------

/// NetServer on a kernel-assigned TCP port, its event loop on a thread.
struct TcpFixture {
  std::shared_ptr<ModelRegistry> registry = tiny_registry();
  std::unique_ptr<GenerationServer> server;
  std::unique_ptr<NetServer> net;
  std::thread loop;
  std::atomic<bool> stop{false};
  int port = 0;

  explicit TcpFixture(ServerConfig cfg = {}, NetServerConfig ncfg = {}) {
    server = std::make_unique<GenerationServer>(registry, cfg);
    net = std::make_unique<NetServer>(*server, *registry, ncfg);
    std::string err;
    if (!net->add_tcp_listener("127.0.0.1", 0, &err, &port))
      throw std::runtime_error("listen: " + err);
    loop = std::thread([this] { net->run([this] { return stop.load(); }); });
  }

  ~TcpFixture() {
    stop.store(true);
    loop.join();
    net.reset();
    server->shutdown();
  }
};

int connect_port(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(ServeNet, TcpHundredConcurrentClients) {
  TcpFixture fix;
  const int kClients = 120;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      int fd = connect_port(fix.port);
      if (fd < 0) return;
      char line[64];
      std::snprintf(line, sizeof(line), "{\"op\":\"ping\",\"id\":%d}", i + 1);
      LineReader reader(fd);
      std::string resp;
      if (write_line_fd(fd, line) && reader.next(resp)) {
        obs::Json j = obs::Json::parse(resp);
        std::uint64_t id = 0;
        bool pong = false;
        if (get_u64(j, "id", 0, &id) && get_bool(j, "pong", false, &pong) &&
            id == static_cast<std::uint64_t>(i + 1) && pong)
          ok.fetch_add(1);
      }
      ::close(fd);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients);
}

// Determinism over the wire: a replayed request must come back cached AND
// byte-identical (full response line, minus the id/timing fields the
// server rewrites per request).
TEST(ServeNet, TcpCacheHitByteIdentical) {
  ServerConfig cfg;
  cfg.cache_entries = 8;
  TcpFixture fix(cfg);
  int fd = connect_port(fix.port);
  ASSERT_GE(fd, 0);
  LineReader reader(fd);
  auto rpc = [&](const std::string& req) {
    std::string resp;
    EXPECT_TRUE(write_line_fd(fd, req));
    EXPECT_TRUE(reader.next(resp));
    return obs::Json::parse(resp);
  };
  obs::Json cold =
      rpc("{\"op\":\"sample\",\"id\":1,\"model\":\"t\",\"seed\":9,"
          "\"count\":1,\"steps\":2}");
  obs::Json warm =
      rpc("{\"op\":\"sample\",\"id\":2,\"model\":\"t\",\"seed\":9,"
          "\"count\":1,\"steps\":2}");
  bool ok = false, cached = false;
  ASSERT_TRUE(get_bool(cold, "ok", false, &ok) && ok);
  ASSERT_TRUE(get_bool(warm, "ok", false, &ok) && ok);
  EXPECT_TRUE(get_bool(warm, "cached", false, &cached) && cached);
  const obs::Json* cold_p = cold.find("patterns");
  const obs::Json* warm_p = warm.find("patterns");
  ASSERT_NE(cold_p, nullptr);
  ASSERT_NE(warm_p, nullptr);
  EXPECT_EQ(cold_p->dump(), warm_p->dump());
  const obs::Json* cold_l = cold.find("legal");
  const obs::Json* warm_l = warm.find("legal");
  ASSERT_NE(cold_l, nullptr);
  ASSERT_NE(warm_l, nullptr);
  EXPECT_EQ(cold_l->dump(), warm_l->dump());
  ::close(fd);
}

/// Raises the soft open-file limit to at least `want`; false when the hard
/// limit is lower.
bool raise_fd_limit(rlim_t want) {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return false;
  if (rl.rlim_cur >= want) return true;
  if (rl.rlim_max != RLIM_INFINITY && rl.rlim_max < want) return false;
  rl.rlim_cur = want;
  return ::setrlimit(RLIMIT_NOFILE, &rl) == 0;
}

// 1000+ clients hold a connection each at once, then each sends one sample
// request at a 64-deep admission queue. Every client gets exactly one
// answer, ok or a structured queue_full, and no connection is dropped.
// Seeds repeat mod 32 over two models on two shards, so a replay of every
// key that generated must come back cached and byte-equal, and both
// shards must have served traffic.
TEST(ServeNet, TcpStampedeAnswersEveryClient) {
  const int kClients = 1050;
  // Both ends of every connection live in this process.
  const rlim_t fds = 2 * kClients + 64;
  if (!raise_fd_limit(fds))
    GTEST_SKIP() << "RLIMIT_NOFILE hard limit below " << fds;
  ServerConfig cfg;
  cfg.max_queue = 64;
  cfg.shards = 2;
  cfg.cache_entries = 512;
  NetServerConfig ncfg;
  ncfg.backlog = 2048;
  TcpFixture fix(cfg, ncfg);
  fix.registry->load(tiny_spec("u"));  // route 1: the second shard

  auto model_of = [](int i) { return (i % 2 != 0) ? "u" : "t"; };
  auto request = [](std::uint64_t id, const std::string& model, int seed) {
    return "{\"op\":\"sample\",\"id\":" + std::to_string(id) +
           ",\"model\":\"" + model + "\",\"seed\":" + std::to_string(seed) +
           ",\"count\":1,\"steps\":2,\"finish\":true}";
  };
  // A lost reply must fail the test, not hang it.
  const timeval patience{30, 0};
  std::vector<int> clients;
  for (int i = 0; i < kClients; ++i) {
    int fd = connect_port(fix.port);
    ASSERT_GE(fd, 0) << "client " << i << " could not connect";
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &patience, sizeof(patience));
    clients.push_back(fd);
  }
  for (int i = 0; i < kClients; ++i) {
    const std::string line = request(i + 1, model_of(i), i % 32) + "\n";
    // MSG_NOSIGNAL: a connection the server dropped shows up as a lost
    // reply below instead of killing the test with SIGPIPE.
    [[maybe_unused]] ssize_t n =
        ::send(clients[i], line.data(), line.size(), MSG_NOSIGNAL);
  }
  int ok = 0, queue_full = 0;
  std::vector<std::string> lost;
  std::map<std::pair<std::string, int>, std::string> generated;  // -> patterns
  for (int i = 0; i < kClients; ++i) {
    LineReader reader(clients[i]);
    std::string line;
    obs::Json resp = reader.next(line) ? obs::Json::parse(line) : obs::Json();
    bool resp_ok = false;
    get_bool(resp, "ok", false, &resp_ok);
    const obs::Json* err = resp.find("error");
    const obs::Json* code = err ? err->find("code") : nullptr;
    if (resp_ok && resp.find("patterns")) {
      ++ok;
      generated.emplace(std::make_pair(model_of(i), i % 32),
                        resp.find("patterns")->dump());
    } else if (code && code->is_string() &&
               code->as_string() == "queue_full") {
      ++queue_full;
    } else {
      lost.push_back("client " + std::to_string(i) + ": '" + line + "'");
    }
    ::close(clients[i]);
  }
  EXPECT_EQ(ok + queue_full, kClients);
  EXPECT_TRUE(lost.empty()) << lost.size() << " clients got no ok or "
                            << "queue_full reply, first " << lost.front();
  ASSERT_FALSE(generated.empty());

  int fd = connect_port(fix.port);
  ASSERT_GE(fd, 0);
  LineReader reader(fd);
  std::uint64_t id = 1000000;
  int replayed = 0;
  for (const auto& [key, patterns] : generated) {
    ASSERT_TRUE(write_line_fd(fd, request(++id, key.first, key.second)));
    std::string line;
    ASSERT_TRUE(reader.next(line)) << key.first << "/" << key.second;
    obs::Json resp = obs::Json::parse(line);
    bool resp_ok = false, cached = false;
    get_bool(resp, "ok", false, &resp_ok);
    get_bool(resp, "cached", false, &cached);
    const obs::Json* pats = resp.find("patterns");
    if (resp_ok && cached && pats && pats->dump() == patterns) ++replayed;
  }
  ::close(fd);
  EXPECT_EQ(replayed, static_cast<int>(generated.size()))
      << "a replay was not a cache hit byte-equal to its generation";
  expect_every_shard_served(*fix.server, 2);
}

// A client that half-closes (SHUT_WR) after sending still receives every
// in-flight response; the server then closes the connection.
TEST(ServeNet, TcpHalfCloseStillDeliversResponses) {
  TcpFixture fix;
  int fd = connect_port(fix.port);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(write_line_fd(
      fd, "{\"op\":\"sample\",\"id\":5,\"model\":\"t\",\"seed\":1,"
          "\"count\":1,\"steps\":2}"));
  ::shutdown(fd, SHUT_WR);
  LineReader reader(fd);
  std::string resp;
  ASSERT_TRUE(reader.next(resp));
  obs::Json j = obs::Json::parse(resp);
  bool ok = false;
  EXPECT_TRUE(get_bool(j, "ok", false, &ok) && ok);
  EXPECT_FALSE(reader.next(resp)) << "server must close after the drain";
  EXPECT_FALSE(reader.failed());
  ::close(fd);
}

// A slow consumer (never reads) whose responses overflow the bounded
// outbound buffer gets disconnected; the server keeps serving everyone
// else — the executor never blocks on a socket.
TEST(ServeNet, TcpSlowConsumerIsDisconnectedNotBlocking) {
  NetServerConfig ncfg;
  ncfg.max_outbuf_bytes = 2048;  // a couple of pattern responses
  TcpFixture fix({}, ncfg);
  int slow = connect_port(fix.port);
  ASSERT_GE(slow, 0);
  // Shrink the receive window so the kernel cannot absorb the backlog for
  // us, then stack up responses without ever reading one.
  int tiny = 1;
  ::setsockopt(slow, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  for (int i = 0; i < 64; ++i) {
    char line[128];
    std::snprintf(line, sizeof(line),
                  "{\"op\":\"sample\",\"id\":%d,\"model\":\"t\",\"seed\":%d,"
                  "\"count\":1,\"steps\":2}",
                  i + 1, i);
    if (!write_line_fd(slow, line)) break;  // already disconnected: fine
  }
  // The server must stay healthy for a well-behaved client while (and
  // after) the slow one is dropped.
  int good = connect_port(fix.port);
  ASSERT_GE(good, 0);
  LineReader reader(good);
  std::string resp;
  ASSERT_TRUE(write_line_fd(good, "{\"op\":\"ping\",\"id\":99}"));
  ASSERT_TRUE(reader.next(resp));
  bool pong = false;
  EXPECT_TRUE(get_bool(obs::Json::parse(resp), "pong", false, &pong) && pong);
  ::close(good);
  // The slow connection dies (RST/EOF) rather than wedging the server.
  timeval tv{5, 0};
  ::setsockopt(slow, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char buf[4096];
  ssize_t n;
  do {
    n = ::read(slow, buf, sizeof(buf));
  } while (n > 0);
  EXPECT_LE(n, 0);
  ::close(slow);
}

// ---- Unix socket path safety -------------------------------------------

TEST(ServeNet, UdsStaleSocketIsReclaimed) {
  const std::string path = testing::TempDir() + "pp_stale_probe.sock";
  ::unlink(path.c_str());
  // Forge a stale socket: bind, then abandon without unlinking (what a
  // crashed server leaves behind).
  int dead = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(dead, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::bind(dead, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ::close(dead);  // file remains, nobody listens

  auto registry = tiny_registry();
  GenerationServer server(registry);
  NetServer net(server, *registry, {});
  std::string err;
  EXPECT_TRUE(net.add_uds_listener(path, &err)) << err;
  server.shutdown();
}

TEST(ServeNet, UdsLiveServerIsRefused) {
  const std::string path = testing::TempDir() + "pp_live_probe.sock";
  ::unlink(path.c_str());
  auto registry = tiny_registry();
  GenerationServer server(registry);
  NetServer first(server, *registry, {});
  std::string err;
  ASSERT_TRUE(first.add_uds_listener(path, &err)) << err;

  // A second instance racing on the same path must refuse, and must NOT
  // unlink the live socket out from under the first.
  GenerationServer server2(registry);
  NetServer second(server2, *registry, {});
  EXPECT_FALSE(second.add_uds_listener(path, &err));
  EXPECT_NE(err.find("live"), std::string::npos) << err;
  struct stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << "live socket file was removed";
  server.shutdown();
  server2.shutdown();
}

}  // namespace
}  // namespace pp::serve
