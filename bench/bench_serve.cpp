// Serving-layer benchmark: closed-loop multi-client throughput and latency
// through the GenerationServer (queue -> step-level continuous batching ->
// finish tail), plus an overload phase that drives the admission-control
// paths (queue-full rejects, deadline timeouts) so the serve.* counters
// show up in the run report.
//
// Output (grep '^{"bench"'):
//   {"bench": "serve_closed_loop", "ms": ..., "rps": ..., "p50_ms": ...,
//    "p95_ms": ..., "p99_ms": ..., "clients": ..., "requests": ...}
//   {"bench": "serve_open_loop_cont", "ms": ..., "offered_rps": ...,
//    "rps": ..., "p50_ms": ..., "p95_ms": ..., "p99_ms": ...,
//    "queue_p50_ms": ..., "queue_p95_ms": ..., "queue_p99_ms": ...,
//    "requests": ...}
//   {"bench": "serve_telemetry", "ms": ..., "mid_p95_ms": ...,
//    "final_rolling_p95_ms": ..., "final_p95_ms": ..., "bucket_ratio": ...,
//    "within_bucket": 0|1, "request_log_lines": ..., "requests": ...,
//    "log_complete": 0|1, "health_ok": 0|1}
//   {"bench": "serve_overload", "ms": ..., "rejected": ..., "timeouts": ...}
//   {"bench": "serve_tcp", "ms": ..., "clients": ..., "requests": ...,
//    "ok": ..., "rejected": ..., "cache_hits": ..., "cache_misses": ...,
//    "hit_bitwise": ..., "hit_expected": ..., "shards_active": ...}
//
// The serve_tcp line is the network-tier acceptance probe: 1000+ REAL TCP
// clients connect concurrently to the epoll loop, stampede a small
// admission queue (every request is answered — ok or a structured
// queue_full reject, never a dropped connection), then a replay wave
// proves every cache hit is BITWISE identical to the cold generation it
// shadows and that both executor shards served traffic.
//
// The serve_telemetry line is the live-telemetry acceptance probe: during
// the open-loop phase the dispatcher scrapes the server's rolling-window
// metrics mid-run (the same payload the `metrics` wire op returns) and the
// bench asserts (a) the mid-run rolling p95 lands within one histogram
// bucket ratio of the server's final rolling p95, and (b) the wide-event
// request log accounts for 100% of accepted + rejected requests.
//
// The open-loop line measures tail latency under step-level continuous
// batching: Poisson arrivals (PP_SERVE_RPS overrides the offered rate) with
// three mixed sampler classes (short steps 2 / 4 plus rare steps-32
// heavies). Every arrival joins the running batch at the next step
// boundary, so a short request never waits out a heavy one.
//
// The model is a tiny untrained sd1 (weights from the init seed): the
// serving costs measured here — queueing, batching, denoising-step compute,
// finish tail — are identical in kind to a trained model's.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "benchutil.hpp"
#include "common/rng.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/net.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"

namespace {

using namespace pp;

/// Walks nested objects; returns nullptr when any hop is missing.
const obs::Json* json_path(const obs::Json& j,
                          std::initializer_list<const char*> keys) {
  const obs::Json* cur = &j;
  for (const char* k : keys) {
    if (!cur->is_object()) return nullptr;
    cur = cur->find(k);
    if (!cur) return nullptr;
  }
  return cur;
}

double json_num(const obs::Json* j) {
  return j && j->is_number() ? j->as_number() : 0.0;
}

/// Mid-run telemetry scrape results from the continuous open-loop phase.
struct TelemetryProbe {
  double mid_p95_ms = 0.0;    ///< rolling long-window e2e p95 at ~85% dispatched
  double mid_count = 0.0;     ///< window sample count behind mid_p95_ms
  double final_p95_ms = 0.0;  ///< same rolling estimator after the last reply
  bool health_ok = false;     ///< mid-run health op said status=ok, accepting
  std::uint64_t reqlog_lines = 0;   ///< wide-event request-log lines written
  std::uint64_t reqlog_expected = 0;  ///< accepted + rejected = all arrivals
};

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t idx = static_cast<std::size_t>(q * (v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

serve::ModelSpec tiny_spec() {
  serve::ModelSpec spec;
  spec.key = "bench";
  spec.preset = "sd1";
  spec.clip_size = 16;
  spec.timesteps = 40;
  spec.sample_steps = 4;
  spec.base_channels = 6;
  spec.time_dim = 16;
  return spec;
}

serve::GenRequest sample_req(std::uint64_t id, std::uint64_t seed) {
  serve::GenRequest req;
  req.id = id;
  req.op = serve::GenRequest::Op::kSample;
  req.model = "bench";
  req.seed = seed;
  req.count = 1;
  req.finish = true;
  return req;
}

int tcp_connect_port(int port) {
  for (int attempt = 0; attempt < 5; ++attempt) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10 << attempt));
  }
  return -1;
}

/// Raises RLIMIT_NOFILE toward its hard cap so 1000+ sockets fit; best
/// effort (the default soft limit of 1024 is the only common blocker).
void raise_fd_limit() {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return;
  rlim_t want = 16384;
  if (rl.rlim_max != RLIM_INFINITY && want > rl.rlim_max) want = rl.rlim_max;
  if (rl.rlim_cur < want) {
    rl.rlim_cur = want;
    ::setrlimit(RLIMIT_NOFILE, &rl);
  }
}

/// One open-loop arrival: when it fires (ms after phase start) and which
/// sampler class it belongs to, precomputed before the phase starts.
struct Arrival {
  double at_ms = 0.0;
  int steps = 0;
  int count = 1;
};

struct OpenLoopStats {
  double wall_ms = 0.0;
  double rps = 0.0;
  std::vector<double> e2e_ms;    ///< server-reported enqueue -> completion
  std::vector<double> queue_ms;  ///< server-reported enqueue -> batch join
};

/// Replays the arrival schedule against a fresh server. A single
/// dispatcher thread sleeps to each Poisson arrival and fires the submit;
/// latencies are the server's own e2e_ms / wait_ms, so client-side clock
/// jitter does not pollute them.
OpenLoopStats run_open_loop(const std::shared_ptr<serve::ModelRegistry>& reg,
                            const std::vector<Arrival>& arrivals,
                            TelemetryProbe* probe = nullptr) {
  using Clock = std::chrono::steady_clock;
  serve::ServerConfig cfg;
  cfg.max_queue = 1024;  // open loop must never bounce off admission
  cfg.max_batch_samples = 8;
  if (probe)
    cfg.request_log.path = bench::results_dir() + "/bench_serve_requests.ndjson";
  serve::GenerationServer server(reg, cfg);
  server.start();
  std::vector<std::future<serve::GenResponse>> futs;
  futs.reserve(arrivals.size());
  // Scrape at ~85% of the arrival schedule: far enough in that the window
  // holds a representative sample, still mid-load.
  const std::size_t scrape_at = arrivals.size() * 17 / 20;
  auto rolling_e2e = [&server](double* p95, double* count) {
    obs::Json m = server.metrics_json();
    const obs::Json* h =
        json_path(m, {"rolling", "long", "histograms", "serve.e2e_ms"});
    if (p95) *p95 = json_num(h ? h->find("p95") : nullptr);
    if (count) *count = json_num(h ? h->find("count") : nullptr);
  };
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(arrivals[i].at_ms)));
    serve::GenRequest req = sample_req(i + 1, 0x5EED + i);
    req.steps = arrivals[i].steps;
    req.count = arrivals[i].count;
    futs.push_back(server.submit(std::move(req)));
    if (probe && i == scrape_at) {
      rolling_e2e(&probe->mid_p95_ms, &probe->mid_count);
      obs::Json h = server.health_json();
      const obs::Json* status = h.find("status");
      const obs::Json* accepting = h.find("accepting");
      probe->health_ok = status && status->is_string() &&
                         status->as_string() == "ok" && accepting &&
                         accepting->is_bool() && accepting->as_bool();
    }
  }
  OpenLoopStats out;
  for (auto& f : futs) {
    serve::GenResponse resp = f.get();
    if (!resp.ok()) continue;
    out.e2e_ms.push_back(resp.e2e_ms);
    out.queue_ms.push_back(resp.wait_ms);
  }
  out.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  if (probe) {
    // Every response has been delivered (the request log line is written
    // before the promise is fulfilled), so both reads are final.
    rolling_e2e(&probe->final_p95_ms, nullptr);
    probe->reqlog_lines = server.request_log().lines_written();
    probe->reqlog_expected = arrivals.size();
  }
  server.shutdown();
  out.rps = out.e2e_ms.empty() ? 0.0
                               : static_cast<double>(out.e2e_ms.size()) /
                                     (out.wall_ms / 1000.0);
  return out;
}

void emit_open_loop(const char* name, const OpenLoopStats& s,
                    double offered_rps) {
  std::printf(
      "%s: %zu requests in %.1f ms (offered %.1f rps, achieved %.1f): "
      "e2e p50 %.1f p95 %.1f p99 %.1f ms, queue p50 %.1f p95 %.1f p99 %.1f ms\n",
      name, s.e2e_ms.size(), s.wall_ms, offered_rps, s.rps,
      percentile(s.e2e_ms, 0.50), percentile(s.e2e_ms, 0.95),
      percentile(s.e2e_ms, 0.99), percentile(s.queue_ms, 0.50),
      percentile(s.queue_ms, 0.95), percentile(s.queue_ms, 0.99));
  bench::emit_json_summary(
      name, s.wall_ms,
      {{"offered_rps", offered_rps},
       {"rps", s.rps},
       {"p50_ms", percentile(s.e2e_ms, 0.50)},
       {"p95_ms", percentile(s.e2e_ms, 0.95)},
       {"p99_ms", percentile(s.e2e_ms, 0.99)},
       {"queue_p50_ms", percentile(s.queue_ms, 0.50)},
       {"queue_p95_ms", percentile(s.queue_ms, 0.95)},
       {"queue_p99_ms", percentile(s.queue_ms, 0.99)},
       {"requests", static_cast<double>(s.e2e_ms.size())}});
}

}  // namespace

int main() {
  using namespace pp::bench;
  using Clock = std::chrono::steady_clock;
  Scale scale = get_scale();
  const int clients = 4;
  const int per_client = scale.full ? 20 : 5;
  std::printf("=== serve: closed-loop %d clients x %d requests (%s scale) ===\n",
              clients, per_client, scale.full ? "full" : "quick");

  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->load(tiny_spec());

  // Phase 1: closed loop. Each client thread keeps exactly one request in
  // flight (submit -> wait -> repeat); coalescing happens whenever several
  // clients' requests sit in the queue together.
  std::vector<double> latencies;
  std::mutex lat_m;
  double wall_ms = 0.0;
  {
    serve::ServerConfig cfg;
    cfg.max_queue = 64;
    cfg.max_batch_samples = 8;
    serve::GenerationServer server(registry, cfg);
    server.start();
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (int r = 0; r < per_client; ++r) {
          const std::uint64_t id =
              static_cast<std::uint64_t>(c) * 1000 + 1 + r;
          const Clock::time_point s = Clock::now();
          serve::GenResponse resp = server.submit(sample_req(id, id)).get();
          const double ms =
              std::chrono::duration<double, std::milli>(Clock::now() - s)
                  .count();
          if (resp.ok()) {
            std::lock_guard<std::mutex> lk(lat_m);
            latencies.push_back(ms);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    server.shutdown();
  }
  const int total = clients * per_client;
  const double rps = total / (wall_ms / 1000.0);
  const double p50 = percentile(latencies, 0.50);
  const double p95 = percentile(latencies, 0.95);
  const double p99 = percentile(latencies, 0.99);
  std::printf("completed %zu/%d requests in %.1f ms: %.2f req/s, "
              "p50 %.1f ms, p95 %.1f ms, p99 %.1f ms\n",
              latencies.size(), total, wall_ms, rps, p50, p95, p99);
  emit_json_summary("serve_closed_loop", wall_ms,
                    {{"rps", rps},
                     {"p50_ms", p50},
                     {"p95_ms", p95},
                     {"p99_ms", p99},
                     {"clients", static_cast<double>(clients)},
                     {"requests", static_cast<double>(total)}});

  // Phase 2: open loop. The traffic shape is the one continuous batching
  // exists for: a stream of short interactive requests (steps 2 / 4, one
  // sample) with an occasional heavy request (steps 32, four samples) mixed
  // in. A short request that arrives while a heavy one runs joins at the
  // next step boundary and leaves after its own 2-4 steps. The offered rate
  // is calibrated off the short class's solo latency so the server is busy
  // but not saturated (~35% of the one-at-a-time short-class service
  // rate); PP_SERVE_RPS overrides it.
  double solo_ms = 0.0;
  {
    serve::GenerationServer server(registry);
    server.start();
    for (int steps : {32, 2, 4}) {  // warm-up + calibration sweep
      serve::GenRequest req = sample_req(900 + steps, 900 + steps);
      req.steps = steps;
      const Clock::time_point s = Clock::now();
      server.submit(std::move(req)).get();
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - s).count();
      if (steps == 4) solo_ms = ms;
    }
    server.shutdown();
  }
  double offered_rps = 0.35 * 1000.0 / std::max(solo_ms, 0.1);
  if (const char* env = std::getenv("PP_SERVE_RPS")) {
    const double forced = std::atof(env);
    if (forced > 0) offered_rps = forced;
  }
  const int open_n = scale.full ? 150 : 60;
  std::printf("=== serve: open-loop Poisson %d requests at %.1f rps, "
              "steps classes {2,4,32} (solo p50 %.1f ms) ===\n",
              open_n, offered_rps, solo_ms);
  std::vector<Arrival> arrivals(static_cast<std::size_t>(open_n));
  {
    Rng arrival_rng(20260808);
    double t = 0.0;
    for (int i = 0; i < open_n; ++i) {
      // Exponential inter-arrival gap: -ln(U)/rate.
      t += -std::log(1.0 - arrival_rng.uniform()) * 1000.0 / offered_rps;
      Arrival& a = arrivals[static_cast<std::size_t>(i)];
      a.at_ms = t;
      if (i % 20 == 10) {  // heavy background request, ~5% of traffic
        a.steps = 32;
        a.count = 4;
      } else {
        a.steps = (i % 2 == 0) ? 2 : 4;
        a.count = 1;
      }
    }
  }
  TelemetryProbe probe;
  const OpenLoopStats cont_stats = run_open_loop(registry, arrivals, &probe);
  emit_open_loop("serve_open_loop_cont", cont_stats, offered_rps);

  // Telemetry acceptance probe: the mid-run rolling p95 must land within
  // one histogram bucket ratio of the final rolling p95 (both use the same
  // log-bucketed estimator, so same-bucket = ratio 1, adjacent = kRatio;
  // 10% fuzz absorbs the geometric-midpoint rounding), and the request log
  // must account for every accepted + rejected request.
  const double bucket_ratio = obs::Histogram::bucket_ratio();
  const double hi = std::max(probe.mid_p95_ms, probe.final_p95_ms);
  const double lo = std::min(probe.mid_p95_ms, probe.final_p95_ms);
  const bool within_bucket =
      probe.mid_count < 10 || lo <= 0.0 || hi / lo <= bucket_ratio * 1.10;
  const bool log_complete = probe.reqlog_lines == probe.reqlog_expected;
  std::printf(
      "telemetry: mid-run p95 %.2f ms (n=%.0f) vs final %.2f ms "
      "(bucket ratio %.2f, %s), request log %llu/%llu lines, health %s\n",
      probe.mid_p95_ms, probe.mid_count, probe.final_p95_ms, bucket_ratio,
      within_bucket ? "within one bucket" : "OUT OF BAND",
      static_cast<unsigned long long>(probe.reqlog_lines),
      static_cast<unsigned long long>(probe.reqlog_expected),
      probe.health_ok ? "ok" : "NOT OK");
  emit_json_summary(
      "serve_telemetry", cont_stats.wall_ms,
      {{"mid_p95_ms", probe.mid_p95_ms},
       {"mid_count", probe.mid_count},
       {"final_rolling_p95_ms", probe.final_p95_ms},
       {"final_p95_ms", percentile(cont_stats.e2e_ms, 0.95)},
       {"bucket_ratio", bucket_ratio},
       {"within_bucket", within_bucket ? 1.0 : 0.0},
       {"request_log_lines", static_cast<double>(probe.reqlog_lines)},
       {"requests", static_cast<double>(probe.reqlog_expected)},
       {"log_complete", log_complete ? 1.0 : 0.0},
       {"health_ok", probe.health_ok ? 1.0 : 0.0}});
  bool telemetry_failed = false;
  if (!within_bucket || !log_complete || !probe.health_ok) {
    std::fprintf(stderr, "bench_serve: telemetry acceptance FAILED\n");
    telemetry_failed = true;
  }

  // Phase 3: overload. A small queue with the executor held back: two
  // no-deadline requests fill it, two short-deadline requests queue behind
  // them, the rest bounce off admission control. shutdown() then runs the
  // queue dry — the deadline pair expires before execution.
  const Clock::time_point t1 = Clock::now();
  int rejected = 0, timeouts = 0;
  {
    serve::ServerConfig cfg;
    cfg.max_queue = 4;
    cfg.max_batch_samples = 8;
    serve::GenerationServer server(registry, cfg);  // note: not started
    std::vector<std::future<serve::GenResponse>> futs;
    for (int i = 0; i < 2; ++i)
      futs.push_back(server.submit(sample_req(100 + i, 100 + i)));
    for (int i = 0; i < 2; ++i) {
      serve::GenRequest req = sample_req(200 + i, 200 + i);
      req.deadline_ms = 0.01;
      futs.push_back(server.submit(std::move(req)));
    }
    for (int i = 0; i < 4; ++i)
      futs.push_back(server.submit(sample_req(300 + i, 300 + i)));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server.shutdown();
    for (auto& f : futs) {
      serve::GenResponse resp = f.get();
      rejected += resp.error == serve::ErrorCode::kQueueFull;
      timeouts += resp.error == serve::ErrorCode::kTimeout;
    }
  }
  const double overload_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t1).count();
  std::printf("overload: %d rejected (queue full), %d timed out\n", rejected,
              timeouts);
  emit_json_summary("serve_overload", overload_ms,
                    {{"rejected", static_cast<double>(rejected)},
                     {"timeouts", static_cast<double>(timeouts)}});

  // Phase 4: the network tier under a real TCP stampede. 1000+ client
  // threads each open a connection, all wait until every connection is
  // established (so the epoll loop genuinely multiplexes them
  // concurrently), then fire one sample request at a 64-deep admission
  // queue: a few dozen generate, the rest get structured queue_full
  // rejects, and NOBODY gets a dropped connection. Seeds repeat mod 32 so
  // the generation cache fills; a replay wave then proves every hit is
  // bitwise identical to the cold generation and that both executor
  // shards (model "bench" -> shard 0, "bench2" -> shard 1) did work.
  raise_fd_limit();
  const int tcp_clients = scale.full ? 1200 : 1050;
  std::printf("=== serve: TCP stampede, %d concurrent clients ===\n",
              tcp_clients);
  bool tcp_failed = false;
  double tcp_wall_ms = 0.0;
  int tcp_ok = 0, tcp_rejected = 0, tcp_other = 0;
  int hit_bitwise = 0, hit_expected = 0, shards_active = 0;
  double cache_hits = 0.0, cache_misses = 0.0;
  {
    serve::ModelSpec second = tiny_spec();
    second.key = "bench2";
    registry->load(second);
    serve::ServerConfig cfg;
    cfg.max_queue = 64;
    cfg.max_batch_samples = 8;
    cfg.shards = 2;
    cfg.cache_entries = 512;
    serve::GenerationServer server(registry, cfg);
    server.start();
    serve::NetServerConfig ncfg;
    ncfg.backlog = 2048;
    ncfg.max_connections = 4096;
    serve::NetServer net(server, *registry, ncfg);
    std::string err;
    int port = 0;
    if (!net.add_tcp_listener("127.0.0.1", 0, &err, &port)) {
      std::fprintf(stderr, "bench_serve: tcp listen failed: %s\n",
                   err.c_str());
      return 1;
    }
    std::atomic<bool> stop{false};
    std::thread loop([&] { net.run([&] { return stop.load(); }); });

    std::atomic<int> connected{0}, conn_failed{0};
    // A real barrier, not a sleep-poll spin: 1000+ threads polling every
    // millisecond starves the epoll/executor threads on small machines.
    std::mutex go_m;
    std::condition_variable go_cv;
    bool go = false;
    std::atomic<int> ok_n{0}, rejected_n{0}, other_n{0};
    std::mutex pat_m;
    std::map<std::string, std::string> cold_patterns;  // "model/seed" -> json
    const Clock::time_point t2 = Clock::now();
    std::vector<std::thread> cthreads;
    cthreads.reserve(static_cast<std::size_t>(tcp_clients));
    for (int i = 0; i < tcp_clients; ++i) {
      cthreads.emplace_back([&, i] {
        int fd = tcp_connect_port(port);
        if (fd < 0) {
          conn_failed.fetch_add(1);
          return;
        }
        connected.fetch_add(1);
        {
          std::unique_lock<std::mutex> lk(go_m);
          go_cv.wait(lk, [&] { return go; });
        }
        const char* model = (i % 2 != 0) ? "bench2" : "bench";
        const int seed = i % 32;
        char line[160];
        std::snprintf(line, sizeof(line),
                      "{\"op\":\"sample\",\"id\":%d,\"model\":\"%s\","
                      "\"seed\":%d,\"count\":1,\"steps\":2,\"finish\":true}",
                      i + 1, model, seed);
        serve::LineReader reader(fd);
        std::string resp_line;
        if (!serve::write_line_fd(fd, line) || !reader.next(resp_line)) {
          other_n.fetch_add(1);
          ::close(fd);
          return;
        }
        obs::Json resp = obs::Json::parse(resp_line);
        bool ok = false;
        serve::get_bool(resp, "ok", false, &ok);
        if (ok) {
          ok_n.fetch_add(1);
          const obs::Json* pats = resp.find("patterns");
          if (pats) {
            std::lock_guard<std::mutex> lk(pat_m);
            cold_patterns.emplace(
                std::string(model) + "/" + std::to_string(seed),
                pats->dump());
          }
        } else {
          const obs::Json* code = json_path(resp, {"error", "code"});
          if (code && code->is_string() && code->as_string() == "queue_full")
            rejected_n.fetch_add(1);
          else
            other_n.fetch_add(1);
        }
        ::close(fd);
      });
    }
    // Release the stampede only once every surviving client is connected:
    // that instant is the concurrency high-water mark the phase claims.
    while (connected.load() + conn_failed.load() < tcp_clients)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      std::lock_guard<std::mutex> lk(go_m);
      go = true;
    }
    go_cv.notify_all();
    for (std::thread& t : cthreads) t.join();
    tcp_wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t2).count();
    tcp_ok = ok_n.load();
    tcp_rejected = rejected_n.load();
    tcp_other = other_n.load() + conn_failed.load();

    // Replay wave: one well-behaved connection re-requests every key that
    // generated cold. Each must come back cached AND bitwise identical.
    int fd = tcp_connect_port(port);
    if (fd < 0) {
      tcp_failed = true;
    } else {
      serve::LineReader reader(fd);
      std::uint64_t rid = 1000000;
      for (const auto& [key, cold] : cold_patterns) {
        ++hit_expected;
        const std::size_t slash = key.find('/');
        char line[160];
        std::snprintf(line, sizeof(line),
                      "{\"op\":\"sample\",\"id\":%llu,\"model\":\"%s\","
                      "\"seed\":%s,\"count\":1,\"steps\":2,\"finish\":true}",
                      static_cast<unsigned long long>(++rid),
                      key.substr(0, slash).c_str(),
                      key.substr(slash + 1).c_str());
        std::string resp_line;
        if (!serve::write_line_fd(fd, line) || !reader.next(resp_line))
          continue;
        obs::Json resp = obs::Json::parse(resp_line);
        bool ok = false, cached = false;
        serve::get_bool(resp, "ok", false, &ok);
        serve::get_bool(resp, "cached", false, &cached);
        const obs::Json* pats = resp.find("patterns");
        if (ok && cached && pats && pats->dump() == cold) ++hit_bitwise;
      }
      // Scrape cache + shard accounting over the wire.
      std::string resp_line;
      if (serve::write_line_fd(fd, "{\"op\":\"stats\",\"id\":2000000}") &&
          reader.next(resp_line)) {
        obs::Json resp = obs::Json::parse(resp_line);
        cache_hits = json_num(json_path(resp, {"stats", "cache", "hits"}));
        cache_misses = json_num(json_path(resp, {"stats", "cache", "misses"}));
        const obs::Json* shard_state =
            json_path(resp, {"stats", "shard_state"});
        for (std::size_t s = 0; shard_state && s < shard_state->size(); ++s)
          shards_active += json_num(shard_state->at(s).find("served")) > 0;
      }
      ::close(fd);
    }
    stop.store(true);
    loop.join();
    server.shutdown();
  }
  std::printf(
      "tcp stampede: %d clients -> %d ok, %d queue_full, %d other in %.1f ms; "
      "replay %d/%d bitwise cache hits; cache %.0f hits / %.0f misses; "
      "%d/2 shards active\n",
      tcp_clients, tcp_ok, tcp_rejected, tcp_other, tcp_wall_ms, hit_bitwise,
      hit_expected, cache_hits, cache_misses, shards_active);
  if (tcp_ok + tcp_rejected != tcp_clients || tcp_other != 0 ||
      hit_expected == 0 || hit_bitwise != hit_expected || shards_active < 2) {
    std::fprintf(stderr, "bench_serve: tcp acceptance FAILED\n");
    tcp_failed = true;
  }
  emit_json_summary("serve_tcp", tcp_wall_ms,
                    {{"clients", static_cast<double>(tcp_clients)},
                     {"requests",
                      static_cast<double>(tcp_ok + tcp_rejected + tcp_other)},
                     {"ok", static_cast<double>(tcp_ok)},
                     {"rejected", static_cast<double>(tcp_rejected)},
                     {"cache_hits", cache_hits},
                     {"cache_misses", cache_misses},
                     {"hit_bitwise", static_cast<double>(hit_bitwise)},
                     {"hit_expected", static_cast<double>(hit_expected)},
                     {"shards_active", static_cast<double>(shards_active)}});

  finalize_observability("serve");
  return telemetry_failed || tcp_failed ? 1 : 0;
}
