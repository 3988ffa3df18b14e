// The serve workload: the request path a user of the server hits.
//
// An in-process GenerationServer + NetServer pair per phase, driven over
// loopback TCP by one connection each:
//   * eval     — the fixed evaluation requests, closed loop (quality);
//   * phase A  — open loop, Poisson arrivals at Sizes::serve_rps on a
//                schedule that is the same for every seed: 10% exact
//                repeats of a request at least 2 s older, 20% steps=4, the
//                rest default steps; 256-entry generation cache;
//   * phase B  — closed loop keeping Sizes::serve_inflight of phase A's
//                non-repeat requests in flight, on a server without a cache,
//                so it measures generation capacity.
// Phase A's latency is timed client-side from each request's due time, so
// a stall also charges the requests queued behind it.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <thread>

#include "common/error.hpp"
#include "diffusion/convert.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "ppbench.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"

namespace ppbench {

using namespace pp;

namespace {

constexpr const char* kModel = "bench";
/// Seed of phase A's arrival times, the same for every --seed.
constexpr std::uint64_t kArrivalSeed = 0xA4417u;

/// Wire seeds travel as JSON numbers (doubles): keep them exact.
std::uint64_t wire_seed(std::uint64_t s) { return s >> 11; }

/// One inpaint request's content (count 1; its id is assigned at send).
struct Request {
  int tmpl = 0;        ///< index into the starter set
  int mask_id = 0;     ///< predefined mask
  std::uint64_t seed = 0;
  int steps = 0;       ///< 0 = model default
};

struct Reply {
  bool ok = false;
  bool cached = false;
  std::string output;  ///< patterns + legal verdicts as sent on the wire
  std::string pattern;
  double server_wait_ms = 0.0, server_e2e_ms = 0.0;
  Clock::time_point recv;
};

std::string request_line(std::uint64_t id, const Request& r,
                         const std::vector<Raster>& starters) {
  obs::Json j = obs::Json::object();
  j.set("id", obs::Json(static_cast<std::size_t>(id)));
  j.set("op", obs::Json("inpaint"));
  j.set("model", obs::Json(kModel));
  j.set("seed", obs::Json(static_cast<std::size_t>(r.seed)));
  j.set("count", obs::Json(1));
  if (r.steps != 0) j.set("steps", obs::Json(r.steps));
  j.set("template",
        serve::raster_to_json(starters[static_cast<std::size_t>(r.tmpl)]));
  j.set("mask_id", obs::Json(r.mask_id));
  return j.dump();
}

/// Parses one response line; returns its id.
std::uint64_t parse_reply(const std::string& line, Reply* out) {
  const obs::Json j = obs::Json::parse(line);
  std::uint64_t id = 0;
  serve::get_u64(j, "id", 0, &id);
  serve::get_bool(j, "ok", false, &out->ok);
  serve::get_bool(j, "cached", false, &out->cached);
  serve::get_double(j, "wait_ms", 0.0, &out->server_wait_ms);
  serve::get_double(j, "e2e_ms", 0.0, &out->server_e2e_ms);
  const obs::Json* pats = j.find("patterns");
  const obs::Json* legal = j.find("legal");
  out->output = (pats ? pats->dump() : "") + (legal ? legal->dump() : "");
  if (pats && pats->is_array() && pats->size() == 1 && pats->at(0).is_string())
    out->pattern = pats->at(0).as_string();
  out->recv = Clock::now();
  return id;
}

int tcp_connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // A reply that never comes fails the run instead of hanging it.
  timeval timeout{60, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return fd;
}

/// A GenerationServer behind a NetServer on a loopback port, with one
/// client connection. Destruction closes the client, stops the event loop
/// and drains the server.
class Stack {
 public:
  Stack(const std::shared_ptr<serve::ModelRegistry>& registry,
        std::size_t cache_entries) {
    serve::ServerConfig cfg;
    cfg.max_queue = 1024;  // the open loop must never bounce off admission
    cfg.cache_entries = cache_entries;
    server_ = std::make_unique<serve::GenerationServer>(registry, cfg);
    executors_ = threads_started_by([this] { server_->start(); });
    net_ = std::make_unique<serve::NetServer>(*server_, *registry);
    std::string err;
    int port = 0;
    PP_REQUIRE_MSG(net_->add_tcp_listener("127.0.0.1", 0, &err, &port),
                   "serve: listen failed: " + err);
    // The listen backlog completes the connection; the event loop starts
    // last, so a failure above leaves no thread to join.
    fd_ = tcp_connect(port);
    PP_REQUIRE_MSG(fd_ >= 0, "serve: connect failed");
    reader_ = std::make_unique<serve::LineReader>(fd_);
    loop_ = std::thread([this] { net_->run([this] { return stop_.load(); }); });
  }
  ~Stack() {
    stop_.store(true);  // before the close, whose event wakes the loop
    abort();
    ::close(fd_);
    loop_.join();
    server_->shutdown();
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Ends the connection: a blocked receive() fails instead of waiting.
  void abort() { ::shutdown(fd_, SHUT_RDWR); }

  void send(const std::string& line) {
    PP_REQUIRE_MSG(serve::write_line_fd(fd_, line), "serve: write failed");
  }
  std::uint64_t receive(Reply* r) {
    std::string line;
    PP_REQUIRE_MSG(reader_->next(line), "serve: connection closed");
    return parse_reply(line, r);
  }

  /// Pins the executors to the next CPU turn: under a closed loop an
  /// executor never sleeps, so the scheduler would keep it on the core it
  /// drew (see ppbench.hpp, "CPU placement").
  void move_executors() {
    ++turn_;
    for (std::size_t j = 0; j < executors_.size(); ++j)
      pin_thread(executors_[j], turn_ + j);
  }

 private:
  std::vector<pid_t> executors_;  ///< the server's executor threads
  std::size_t turn_ = 0;
  std::unique_ptr<serve::GenerationServer> server_;
  std::unique_ptr<serve::NetServer> net_;
  std::atomic<bool> stop_{false};
  std::thread loop_;
  int fd_ = -1;
  std::unique_ptr<serve::LineReader> reader_;
};

/// Replies of a closed loop, by request index, and the arrival times of
/// those received before its stop time.
struct ClosedLoop {
  std::vector<Reply> replies;
  std::vector<Clock::time_point> in_window;
};

/// Sustained reply rate: the median, over every run of `k` consecutive
/// in-window replies (fewer in a short window), of k over the time they
/// took. A median over many windows moves less under a burst of outside
/// load than one total does.
double reply_rate(const std::vector<Clock::time_point>& t, std::size_t k) {
  if (t.size() < 2) return 0.0;
  k = std::min(k, t.size() - 1);
  std::vector<double> rates;
  for (std::size_t i = 0; i + k < t.size(); ++i)
    rates.push_back(static_cast<double>(k) /
                    std::chrono::duration<double>(t[i + k] - t[i]).count());
  return median(rates);
}

/// Closed loop: keeps `inflight` requests outstanding, sending reqs in
/// order (ids first_id, first_id+1, ...) until all are sent or `stop_at`
/// passes, then drains.
ClosedLoop closed_loop(Stack& st, const std::vector<Request>& reqs,
                       const std::vector<Raster>& starters, int inflight,
                       std::uint64_t first_id, Clock::time_point stop_at) {
  ClosedLoop out;
  out.replies.resize(reqs.size());
  std::size_t sent = 0, received = 0;
  auto send_next = [&] {
    st.send(request_line(first_id + sent, reqs[sent], starters));
    ++sent;
  };
  while (sent < reqs.size() && static_cast<int>(sent) < inflight) send_next();
  while (received < sent) {
    Reply r;
    const std::uint64_t id = st.receive(&r);
    PP_REQUIRE_MSG(id >= first_id && id < first_id + sent,
                   "serve: reply for an unknown id");
    if (r.recv <= stop_at) out.in_window.push_back(r.recv);
    out.replies[id - first_id] = std::move(r);
    if (++received % (2 * static_cast<std::size_t>(inflight)) == 0)
      st.move_executors();
    if (sent < reqs.size() && Clock::now() < stop_at) send_next();
  }
  unpin_threads();
  out.replies.resize(sent);
  return out;
}

struct Arrival {
  double at_ms = 0.0;
  int content = 0;      ///< index into the distinct request list
  bool repeat = false;  ///< exact repeat of an earlier arrival
};

}  // namespace

void run_serve(const Options& o, Outcome& out) {
  const Sizes& s = o.sizes;
  std::shared_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<Stack> cached, uncached;
  std::vector<Raster> starters;
  RunReport rep;
  rep.setup_s = timed_setup(
      o,
      [&] {
        starters = make_starters(s.starters, sub_seed(o.seed, kStarters));
        registry = std::make_shared<serve::ModelRegistry>();
        serve::ModelSpec spec;
        spec.key = kModel;
        spec.preset = "sd1";
        spec.clip_size = 32;
        spec.rules = "advance/2";
        spec.checkpoint = finetuned_path(o);
        PP_REQUIRE_MSG(registry->load(spec)->trained,
                       "serve: checkpoint did not load: " + spec.checkpoint);
        cached = std::make_unique<Stack>(registry, 256);
        uncached = std::make_unique<Stack>(registry, 0);
        // One round trip per stack: the executors and the pool are warm.
        Reply r;
        const Request warm{0, 0, kEvalSeed, 0};
        for (Stack* st : {cached.get(), uncached.get()}) {
          st->send(request_line(1, warm, starters));
          st->receive(&r);
        }
      },
      [&] {
        cached.reset();
        uncached.reset();
      });
  const auto entry = registry->get(kModel);
  const DrcChecker checker(bench_rules());

  // Evaluation: fixed requests, independent of --seed.
  {
    const std::vector<Raster> eval_starters =
        make_starters(s.starters, kEvalSeed);
    std::vector<Request> eval;
    Rng rng(kEvalSeed);
    for (int i = 0; i < s.serve_eval; ++i)
      eval.push_back({i % s.starters, i % 10, wire_seed(rng.draw_seed()), 0});
    const ClosedLoop run = closed_loop(*uncached, eval, eval_starters,
                                       s.serve_inflight, 1000,
                                       Clock::time_point::max());
    for (const Reply& r : run.replies) {
      out.check(r.ok && !r.pattern.empty(), "serve: eval request failed");
      if (!r.pattern.empty())
        rep.quality.add(checker, Raster::from_ascii(r.pattern));
    }
  }

  // Phase A schedule: Poisson arrival times and seeded request contents.
  // The traffic shape is fixed so every seed offers the same work: the
  // arrival times come from kArrivalSeed (drawn per --seed, which requests
  // overlap moved the median latency by 17% between seeds), each 10th
  // arrival repeats a random request sent at least 2 s earlier, and 2 of
  // every 9 distinct requests run steps=4.
  const double phase_a_s = o.seconds * 0.7, phase_b_s = o.seconds - phase_a_s;
  std::vector<Request> distinct;
  std::vector<Arrival> arrivals;
  {
    Rng clock(kArrivalSeed);
    Rng rng(sub_seed(o.seed, kRequests));
    double t = 0.0;
    for (;;) {
      t += -std::log(1.0 - clock.uniform()) * 1000.0 / s.serve_rps;
      // The first arrival always runs, however short the phase.
      if (t > phase_a_s * 1000.0 && !arrivals.empty()) break;
      Arrival a;
      a.at_ms = t;
      std::vector<int> older;  // distinct requests first sent >= 2 s ago
      for (const Arrival& b : arrivals)
        if (!b.repeat && b.at_ms <= t - 2000.0) older.push_back(b.content);
      if (arrivals.size() % 10 == 9 && !older.empty()) {
        a.repeat = true;
        a.content = older[rng.index(older.size())];
      } else {
        Request r;
        r.tmpl = static_cast<int>(rng.index(starters.size()));
        r.mask_id = static_cast<int>(rng.index(10));
        r.seed = wire_seed(rng.draw_seed());
        r.steps = distinct.size() % 9 == 4 || distinct.size() % 9 == 8 ? 4 : 0;
        a.content = static_cast<int>(distinct.size());
        distinct.push_back(r);
      }
      arrivals.push_back(a);
    }
  }

  TraceWindow tw;
  if (o.trace) tw.start();

  // Phase A: the main thread sends on schedule, a reader thread collects.
  const std::uint64_t a_first = 100000;
  std::vector<Reply> a_replies(arrivals.size());
  std::vector<Clock::time_point> sent_at(arrivals.size());
  const Clock::time_point a0 = Clock::now() + std::chrono::milliseconds(5);
  {
    PP_TRACE_SPAN("bench.phase_a");
    std::exception_ptr reader_error, sender_error;
    std::thread reader([&] {
      try {
        for (std::size_t n = 0; n < arrivals.size(); ++n) {
          Reply r;
          const std::uint64_t id = cached->receive(&r);
          PP_REQUIRE_MSG(id >= a_first && id < a_first + arrivals.size(),
                         "serve: reply for an unknown id");
          a_replies[id - a_first] = std::move(r);
        }
      } catch (...) {
        reader_error = std::current_exception();
      }
    });
    try {
      for (std::size_t i = 0; i < arrivals.size(); ++i) {
        std::this_thread::sleep_until(a0 + millis(arrivals[i].at_ms));
        sent_at[i] = Clock::now();
        const Request& req =
            distinct[static_cast<std::size_t>(arrivals[i].content)];
        cached->send(request_line(a_first + i, req, starters));
      }
    } catch (...) {
      sender_error = std::current_exception();
      cached->abort();  // the reader would wait for replies never sent
    }
    reader.join();
    if (sender_error) std::rethrow_exception(sender_error);
    if (reader_error) std::rethrow_exception(reader_error);
  }

  // Phase B: the distinct phase-A requests again, cyclically, closed loop.
  std::vector<Request> b_reqs;
  // Enough for 200 replies per second, far above this server's capacity.
  const double b_cap = phase_b_s * 200.0 + s.serve_inflight;
  while (static_cast<double>(b_reqs.size()) < b_cap)
    for (const Request& r : distinct) b_reqs.push_back(r);
  ClosedLoop b;
  {
    PP_TRACE_SPAN("bench.phase_b");
    b = closed_loop(*uncached, b_reqs, starters, s.serve_inflight, 1000000,
                    Clock::now() + millis(phase_b_s * 1e3));
  }
  const std::vector<Reply>& b_replies = b.replies;
  if (o.trace) tw.stop();

  // Checks: every reply ok; repeats and phase B bitwise equal to the first
  // phase-A reply of the same request; every 20th distinct request equal
  // to the sequential reference semantics of serve/protocol.hpp.
  std::map<int, std::size_t> first_of;  // content -> phase-A arrival index
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Reply& r = a_replies[i];
    out.check(r.ok, "serve: phase A request failed");
    const auto [it, fresh] = first_of.emplace(arrivals[i].content, i);
    if (!fresh)
      out.check(r.output == a_replies[it->second].output,
                "serve: repeated request differs from its first reply");
  }
  for (std::size_t i = 0; i < b_replies.size(); ++i) {
    const Reply& r = b_replies[i];
    const int content = static_cast<int>(i % distinct.size());
    out.check(r.ok && r.output == a_replies[first_of.at(content)].output,
              "serve: phase B reply differs from phase A");
  }
  for (std::size_t c = 0; c < distinct.size(); c += 20) {
    const Request& req = distinct[c];
    const Raster& tmpl = starters[static_cast<std::size_t>(req.tmpl)];
    Rng rng(req.seed);
    const std::vector<std::uint64_t> gen = {rng.draw_seed()};
    const nn::Tensor raw = entry->pp->model().inpaint(
        raster_to_tensor(tmpl),
        mask_to_tensor(entry->masks[static_cast<std::size_t>(req.mask_id)]),
        gen, SamplerParams{req.steps, -1.0f});
    const std::vector<GenerationRecord> ref = entry->pp->finish_samples(
        tensor_to_rasters(raw), {tmpl}, {rng.draw_seed()});
    obs::Json pats = obs::Json::array();
    pats.push_back(serve::raster_to_json(ref[0].denoised));
    obs::Json legal = obs::Json::array();
    legal.push_back(obs::Json(ref[0].legal));
    out.check(a_replies[first_of.at(static_cast<int>(c))].output ==
                  pats.dump() + legal.dump(),
              "serve: reply differs from the sequential reference");
  }

  // Latency from each request's due time (phase A, includes cache hits).
  std::vector<double> due_ms, net_ms, wait_ms, e2e_ms;
  double late_max_ms = 0.0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Reply& r = a_replies[i];
    const Clock::time_point due = a0 + millis(arrivals[i].at_ms);
    due_ms.push_back(ms_between(due, r.recv));
    late_max_ms = std::max(late_max_ms, ms_between(due, sent_at[i]));
    if (r.cached) continue;
    const double client = ms_between(sent_at[i], r.recv);
    net_ms.push_back(client - r.server_e2e_ms);
    wait_ms.push_back(r.server_wait_ms);
    e2e_ms.push_back(client);
  }

  rep.throughput =
      reply_rate(b.in_window, 2 * static_cast<std::size_t>(s.serve_inflight));
  rep.latency_ms = median(due_ms);
  if (o.trace) {
    const double default_steps = entry->cfg.ddpm.sample_steps;
    auto steps_of = [&](const Request& r) {
      return r.steps ? r.steps : default_steps;
    };
    std::size_t executed = b_replies.size();
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      if (a_replies[i].cached) continue;
      rep.row_steps +=
          steps_of(distinct[static_cast<std::size_t>(arrivals[i].content)]);
      ++executed;
    }
    for (std::size_t i = 0; i < b_replies.size(); ++i)
      rep.row_steps += steps_of(b_reqs[i]);
    const double p50_e2e = median(e2e_ms);
    rep.queue_share = p50_e2e > 0 ? median(wait_ms) / p50_e2e : 0.0;
    rep.busy_share =
        tw.busy_s_of_threads_with("serve.step_batch") / tw.wall_s();
    const double hits = static_cast<double>(tw.counter("serve.cache.hits"));
    const double lookups =
        hits + static_cast<double>(tw.counter("serve.cache.misses"));
    rep.cache_hit_ratio = lookups > 0 ? hits / lookups : 0.0;
    const double n = static_cast<double>(executed);
    rep.joins_per_request = static_cast<double>(tw.counter("serve.joins")) / n;
    rep.repacks_per_request =
        static_cast<double>(tw.counter("serve.repacks")) / n;
    rep.net_overhead_share = p50_e2e > 0 ? median(net_ms) / p50_e2e : 0.0;
    rep.gen_late_share = late_max_ms * s.serve_rps / 1000.0;
    rep.p90_over_p50 = percentile(due_ms, 0.9) / median(due_ms);
  }
  publish(rep, o.trace ? &tw : nullptr, out);
}

}  // namespace ppbench
