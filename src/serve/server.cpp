#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "expand/expander.hpp"
#include "obs/expo.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pp::serve {

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Process-wide serve counters, summed over every server in the process
// (benchmark/ reads them over a traced window). Each server's own counts
// are GenerationServer members.
struct ServeMetrics {
  // Generation cache: hits served inline at admission (bitwise identical
  // to cold execution), misses counted only when a cache is configured.
  obs::Counter& cache_hits = obs::metrics().counter("serve.cache.hits");
  obs::Counter& cache_misses = obs::metrics().counter("serve.cache.misses");
  obs::Counter& joins = obs::metrics().counter("serve.joins");
  obs::Counter& repacks = obs::metrics().counter("serve.repacks");
};

ServeMetrics& serve_metrics() {
  static ServeMetrics* m = new ServeMetrics;
  return *m;
}

const char* op_name(GenRequest::Op op) {
  switch (op) {
    case GenRequest::Op::kInpaint:
      return "inpaint";
    case GenRequest::Op::kExpand:
      return "expand";
    default:
      return "sample";
  }
}

/// Wide-event outcome taxonomy: every request story ends in exactly one of
/// ok / rejected (never ran) / timeout / cancelled / error.
const char* outcome_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone:
      return "ok";
    case ErrorCode::kTimeout:
      return "timeout";
    case ErrorCode::kCancelled:
      return "cancelled";
    case ErrorCode::kBadRequest:
    case ErrorCode::kUnknownModel:
    case ErrorCode::kInvalidConfig:
    case ErrorCode::kQueueFull:
    case ErrorCode::kDraining:
      return "rejected";
    default:
      return "error";
  }
}

obs::Json request_event(const GenRequest& req, ErrorCode code,
                        double queue_ms, double run_ms, double e2e_ms,
                        int step_batches, int batch_peak,
                        bool joined_running, bool cached, int windows,
                        int waves) {
  obs::Json o = obs::Json::object();
  o.set("event", obs::Json("serve.request"));
  o.set("ts_ms", obs::Json(static_cast<double>(obs::trace_now_ns()) / 1e6));
  o.set("id", obs::Json(req.id));
  o.set("op", obs::Json(op_name(req.op)));
  o.set("model", obs::Json(req.model));
  o.set("seed", obs::Json(req.seed));
  o.set("count", obs::Json(req.count));
  o.set("steps", obs::Json(req.steps));
  o.set("eta", obs::Json(req.eta));
  o.set("outcome", obs::Json(outcome_name(code)));
  o.set("code", obs::Json(error_code_name(code)));
  o.set("queue_ms", obs::Json(queue_ms));
  o.set("run_ms", obs::Json(run_ms));
  o.set("e2e_ms", obs::Json(e2e_ms));
  o.set("step_batches", obs::Json(step_batches));
  o.set("batch_peak", obs::Json(batch_peak));
  o.set("joined_running", obs::Json(joined_running));
  o.set("cached", obs::Json(cached));
  // Expansion progress (0 for sample/inpaint): committed windows and
  // completed waves, plus the request's target dims.
  o.set("target_w", obs::Json(req.target_w));
  o.set("target_h", obs::Json(req.target_h));
  o.set("windows", obs::Json(windows));
  o.set("waves", obs::Json(waves));
  return o;
}

}  // namespace

GenerationServer::GenerationServer(std::shared_ptr<ModelRegistry> registry,
                                   ServerConfig cfg)
    : registry_(std::move(registry)),
      cfg_(std::move(cfg)),
      cache_(cfg_.cache_entries),
      reqlog_(cfg_.request_log) {
  PP_REQUIRE(registry_ != nullptr);
  PP_REQUIRE(cfg_.max_queue >= 1);
  PP_REQUIRE(cfg_.max_batch_samples >= 1);
  PP_REQUIRE(cfg_.shards >= 1);
  shards_.reserve(cfg_.shards);
  for (std::size_t i = 0; i < cfg_.shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
  rolling_.track_counter("serve.accepted", accepted_);
  rolling_.track_counter("serve.rejected", rejected_);
  rolling_.track_counter("serve.completed", completed_);
  rolling_.track_counter("serve.timeouts", timeouts_);
  rolling_.track_counter("serve.cancelled", cancelled_);
  rolling_.track_histogram("serve.e2e_ms", e2e_ms_);
  rolling_.track_histogram("serve.wait_ms", wait_ms_);
}

GenerationServer::~GenerationServer() {
  stop_hard_.store(true);
  draining_.store(true);
  wake_executors();
  for (auto& sh : shards_)
    if (sh->worker.joinable()) sh->worker.join();
  // Fail whatever is still queued (workers never started, or hard stop).
  std::deque<PendingPtr> leftover;
  for (auto& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh->m);
    for (PendingPtr& p : sh->queue) leftover.push_back(std::move(p));
    sh->queue.clear();
  }
  pending_total_.store(0);
  for (const PendingPtr& p : leftover)
    finish_response(p, GenResponse::fail(p->req.id, ErrorCode::kDraining,
                                         "server stopped"));
}

void GenerationServer::start() {
  std::lock_guard<std::mutex> lk(lifecycle_m_);
  start_workers_locked();
}

void GenerationServer::start_workers_locked() {
  if (workers_started_) return;
  workers_started_ = true;
  for (auto& shp : shards_) {
    Shard* sh = shp.get();
    sh->worker = std::thread([this, sh] { worker_loop(*sh); });
  }
}

void GenerationServer::shutdown() {
  draining_.store(true);
  {
    std::lock_guard<std::mutex> lk(lifecycle_m_);
    // Never ran: start now so queued work still completes (graceful).
    if (pending_total_.load() > 0) start_workers_locked();
  }
  wake_executors();
  for (auto& sh : shards_)
    if (sh->worker.joinable()) sh->worker.join();
}

void GenerationServer::wake_executors() {
  // The flags are written without the shard mutex, so notify under it: a
  // worker that read the old value holds sh->m until it sleeps in cv.wait,
  // and a notify without the mutex could land in between and be lost,
  // leaving shutdown() joining a worker that never wakes.
  for (auto& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh->m);
    sh->cv.notify_all();
  }
}

GenerationServer::Shard& GenerationServer::shard_for(
    const ModelRegistry::Entry* entry) {
  return *shards_[entry->route % shards_.size()];
}

std::size_t GenerationServer::shard_depth(std::size_t shard) const {
  const Shard& sh = *shards_.at(shard);
  std::lock_guard<std::mutex> lk(sh.m);
  return sh.queue.size();
}

std::deque<PendingPtr>::iterator GenerationServer::pop_locked(
    Shard& sh, std::deque<PendingPtr>::iterator it) {
  auto next = sh.queue.erase(it);
  pending_total_.fetch_sub(1);
  return next;
}

void GenerationServer::finish_response(const PendingPtr& p, GenResponse resp) {
  const Clock::time_point now = Clock::now();
  resp.e2e_ms = ms_between(p->enqueue, now);
  switch (resp.error) {
    case ErrorCode::kTimeout:
      timeouts_.add();
      break;
    case ErrorCode::kCancelled:
      cancelled_.add();
      break;
    case ErrorCode::kNone:
      completed_.add();
      e2e_ms_.observe(resp.e2e_ms);
      break;
    default:
      break;
  }
  // A successful cold execution is what the generation cache stores; the
  // admission path pre-computed the key. Delivery metadata inside the
  // stored copy (wait/e2e/batch) is rewritten per hit.
  if (resp.ok() && !p->cache_key.empty()) cache_.insert(p->cache_key, resp);
  // Request-scoped telemetry: the serve.request span carries corr = request
  // id, chaining it to the serve.step flow points its step batches emitted.
  if (p->trace_start_ns != 0)
    obs::record_span_with_corr("serve.request", p->trace_start_ns,
                               obs::trace_now_ns(), p->req.id);
  if (reqlog_.enabled()) {
    const double run_ms = p->started ? ms_between(p->exec_start, now) : 0.0;
    reqlog_.write(request_event(p->req, resp.error, p->wait_ms, run_ms,
                                resp.e2e_ms, p->step_batches,
                                resp.batch_samples, p->joined_running,
                                false, resp.expand_windows,
                                resp.expand_waves));
  }
  if (p->done) p->done(std::move(resp));
}

void GenerationServer::log_reject(const GenRequest& req, ErrorCode code) {
  if (reqlog_.enabled())
    reqlog_.write(
        request_event(req, code, 0.0, 0.0, 0.0, 0, 0, false, false, 0, 0));
}

void GenerationServer::submit(GenRequest req,
                              std::function<void(GenResponse)> done) {
  ServeMetrics& m = serve_metrics();
  auto reject = [&](ErrorCode code, const std::string& msg) {
    rejected_.add();
    log_reject(req, code);
    if (done) done(GenResponse::fail(req.id, code, msg));
  };
  if (!accepting()) {
    reject(ErrorCode::kDraining, "server is draining, admission closed");
    return;
  }
  ModelRegistry::EntryPtr entry = registry_->get(req.model);
  if (!entry) {
    reject(ErrorCode::kUnknownModel, "no model '" + req.model +
                                         "' in the registry (load it first)");
    return;
  }
  // Per-request sampler knobs are validated against THIS model's schedule
  // at admission, so a bad value is a structured bad_request on the wire
  // instead of an executor-side ConfigError.
  const int T = entry->cfg.ddpm.T;
  if (req.steps != 0 && (req.steps < 2 || req.steps > T)) {
    reject(ErrorCode::kBadRequest,
           "steps must be 0 (model default) or in [2, " + std::to_string(T) +
               "] for model '" + req.model + "'");
    return;
  }
  if (req.eta > 1.0 || (req.eta < 0.0 && req.eta != -1.0)) {
    // -1.0 is the "model default" sentinel (protocol.hpp); any other
    // negative value is an embedded-caller bug, not a default request.
    reject(ErrorCode::kBadRequest,
           "eta must be in [0, 1], or -1 for the model default");
    return;
  }
  const int clip = entry->cfg.clip_size;
  if (req.op == GenRequest::Op::kExpand) {
    // Same validator as the library path (expand_request_problem), so the
    // two layers reject identical inputs with identical reasons — here as
    // a structured bad_request instead of a typed pp::Error.
    if (req.count != 1) {
      reject(ErrorCode::kBadRequest,
             "expand produces exactly one canvas (count must be 1)");
      return;
    }
    const std::string problem = expand::expand_request_problem(
        req.target_w, req.target_h, clip, req.tmpl.width(),
        req.tmpl.height());
    if (!problem.empty()) {
      reject(ErrorCode::kBadRequest, problem);
      return;
    }
  }
  // A running batch holds at most max_batch_samples samples, so a larger
  // request could never run; rejecting it here also keeps an absurd count
  // from allocating its planes on the executor thread.
  if (req.count < 1 || req.count > cfg_.max_batch_samples) {
    reject(ErrorCode::kBadRequest,
           "count must be in [1, " + std::to_string(cfg_.max_batch_samples) +
               "] (the server's max batch samples)");
    return;
  }
  if (req.op == GenRequest::Op::kInpaint) {
    if (req.mask.empty() && req.mask_id >= 0) {
      if (static_cast<std::size_t>(req.mask_id) >= entry->masks.size()) {
        reject(ErrorCode::kBadRequest,
               "mask_id out of range (have " +
                   std::to_string(entry->masks.size()) + " predefined masks)");
        return;
      }
      req.mask = entry->masks[static_cast<std::size_t>(req.mask_id)];
    }
    if (req.tmpl.width() != clip || req.tmpl.height() != clip ||
        req.mask.width() != clip || req.mask.height() != clip) {
      reject(ErrorCode::kBadRequest,
             "template/mask must be " + std::to_string(clip) + "x" +
                 std::to_string(clip) + " for model '" + req.model + "'");
      return;
    }
  }

  // Generation cache: the key is exact (determinism contract), so a hit is
  // the cold result, served inline without touching a queue or executor.
  std::string ckey;
  if (cache_.enabled()) {
    const Clock::time_point t0 = Clock::now();
    ckey = generation_cache_key(req, *entry);
    GenResponse hit;
    if (cache_.lookup(ckey, &hit)) {
      hit.id = req.id;
      hit.cached = true;
      hit.wait_ms = 0.0;
      hit.batch_samples = 0;  // no batch ran
      hit.e2e_ms = ms_between(t0, Clock::now());
      accepted_.add();
      completed_.add();
      m.cache_hits.add(1);
      e2e_ms_.observe(hit.e2e_ms);
      if (reqlog_.enabled())
        reqlog_.write(request_event(req, ErrorCode::kNone, 0.0, 0.0,
                                    hit.e2e_ms, 0, 0, false, true,
                                    hit.expand_windows, hit.expand_waves));
      if (done) done(std::move(hit));
      return;
    }
    m.cache_misses.add(1);
  }

  auto p = std::make_shared<Pending>();
  p->req = std::move(req);
  p->done = std::move(done);
  p->entry = std::move(entry);
  p->cache_key = std::move(ckey);
  p->enqueue = Clock::now();
  if (obs::trace_enabled()) p->trace_start_ns = obs::trace_now_ns();
  if (p->req.deadline_ms > 0) {
    p->has_deadline = true;
    p->deadline = p->enqueue + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::milli>(
                                       p->req.deadline_ms));
  }
  Shard& sh = shard_for(p->entry.get());
  {
    std::lock_guard<std::mutex> lk(sh.m);
    // Global admission bound across shards: the atomic increment IS the
    // slot claim, so max_queue is exact under concurrent submitters.
    if (pending_total_.fetch_add(1) < cfg_.max_queue) {
      sh.queue.push_back(p);
      accepted_.add();
      sh.cv.notify_one();
      return;
    }
    pending_total_.fetch_sub(1);
  }
  // Queue full. The callback already moved into `p`, so reject through it
  // (outside the lock).
  rejected_.add();
  log_reject(p->req, ErrorCode::kQueueFull);
  if (p->done)
    p->done(GenResponse::fail(
        p->req.id, ErrorCode::kQueueFull,
        "queue full (" + std::to_string(cfg_.max_queue) + " pending)"));
}

std::future<GenResponse> GenerationServer::submit(GenRequest req) {
  auto prom = std::make_shared<std::promise<GenResponse>>();
  std::future<GenResponse> fut = prom->get_future();
  submit(std::move(req),
         [prom](GenResponse r) { prom->set_value(std::move(r)); });
  return fut;
}

bool GenerationServer::cancel(std::uint64_t id) {
  for (auto& shp : shards_) {
    Shard& sh = *shp;
    PendingPtr victim;
    {
      std::lock_guard<std::mutex> lk(sh.m);
      for (auto it = sh.queue.begin(); it != sh.queue.end(); ++it) {
        if ((*it)->req.id == id) {
          victim = *it;
          pop_locked(sh, it);
          break;
        }
      }
      if (!victim) {
        for (const PendingPtr& p : sh.inflight) {
          if (p->req.id != id) continue;
          sh.cancels.push_back(p);  // the executor delivers the response
          return true;
        }
        continue;
      }
    }
    finish_response(victim, GenResponse::fail(id, ErrorCode::kCancelled,
                                              "cancelled while queued"));
    return true;
  }
  return false;
}

void GenerationServer::take_cancels_locked(Shard& sh) {
  for (const PendingPtr& p : sh.cancels) p->cancelled = true;
  sh.cancels.clear();
}

void GenerationServer::count(Shard& sh, const BatchCounts& c) {
  batches_.add(c.batches);
  batched_samples_.add(c.samples);
  joins_.add(c.joins);
  leaves_.add(c.leaves);
  repacks_.add(c.repacks);
  serve_metrics().joins.add(c.joins);
  serve_metrics().repacks.add(c.repacks);
  sh.served.fetch_add(c.finished);
}

void GenerationServer::retire(Shard& sh, ContinuousBatch& batch, Retired r) {
  count(sh, batch.take_counts());
  {
    std::lock_guard<std::mutex> lk(sh.m);
    take_cancels_locked(sh);
    sh.inflight.erase(std::remove(sh.inflight.begin(), sh.inflight.end(), r.p),
                      sh.inflight.end());
  }
  // Dropped before delivery: a cancel() from now on returns false, and one
  // that came earlier made the answer "cancelled".
  if (r.p->cancelled && r.resp.error != ErrorCode::kCancelled)
    r.resp = GenResponse::fail(r.p->req.id, ErrorCode::kCancelled,
                               "cancelled while executing");
  finish_response(r.p, std::move(r.resp));
}

void GenerationServer::worker_loop(Shard& sh) {
  ContinuousBatch batch(cfg_.max_batch_samples, [&](Retired r) {
    retire(sh, batch, std::move(r));
  });
  for (;;) {
    std::vector<PendingPtr> expired_now;
    std::vector<PendingPtr> joined;
    {
      std::unique_lock<std::mutex> lk(sh.m);
      if (batch.empty()) {
        sh.cv.wait(lk, [&] {
          return stop_hard_.load() || draining_.load() || !sh.queue.empty();
        });
        if (sh.queue.empty()) {
          if (draining_.load() || stop_hard_.load()) break;
          continue;
        }
        if (stop_hard_.load()) break;  // destructor flushes the queue
      }
      take_cancels_locked(sh);

      // Deadline pass: anything already expired completes as "timeout"
      // without touching the model.
      const Clock::time_point now = Clock::now();
      for (auto it = sh.queue.begin(); it != sh.queue.end();) {
        if ((*it)->expired(now)) {
          expired_now.push_back(*it);
          it = pop_locked(sh, it);
        } else {
          ++it;
        }
      }

      // Join pass (the step boundary): when idle, the first queued request
      // fixes the batch's registry entry; every queued request on the same
      // entry then joins until the row cap. steps/eta need NOT match —
      // the sampler schedule is per-sample state, not a batch property.
      // Fairness: once the queue head waits on a DIFFERENT entry than the
      // running batch, stop admitting new joins so the batch drains and the
      // head gets served — otherwise sustained same-model traffic starves
      // other models' requests unboundedly.
      const bool head_blocked = !batch.empty() && !sh.queue.empty() &&
                                sh.queue.front()->entry != batch.entry();
      if (!stop_hard_.load() && !head_blocked) {
        const ModelRegistry::Entry* entry = batch.entry().get();
        int rows = batch.rows();
        for (auto it = sh.queue.begin();
             it != sh.queue.end() && rows < cfg_.max_batch_samples;) {
          const PendingPtr& p = *it;
          if (!entry) entry = p->entry.get();
          if (p->entry.get() != entry ||
              rows + p->req.count > cfg_.max_batch_samples) {
            ++it;
            continue;
          }
          rows += p->req.count;
          joined.push_back(p);
          sh.inflight.push_back(p);
          it = pop_locked(sh, it);
        }
      }
    }

    for (const PendingPtr& p : expired_now)
      finish_response(p, GenResponse::fail(p->req.id, ErrorCode::kTimeout,
                                           "deadline expired in queue"));

    if (stop_hard_.load()) {
      batch.abandon(ErrorCode::kDraining, "batch abandoned mid-flight");
      for (const PendingPtr& p : joined)
        retire(sh, batch,
               {p, GenResponse::fail(p->req.id, ErrorCode::kDraining,
                                     "server stopped")});
      break;
    }

    const Clock::time_point now = Clock::now();
    for (const PendingPtr& p : joined) {
      p->wait_ms = ms_between(p->enqueue, now);
      wait_ms_.observe(p->wait_ms);
      p->exec_start = now;
      p->started = true;
      batch.admit(p);
    }
    batch.leave(Clock::now());
    batch.step();
    count(sh, batch.take_counts());
  }
}

obs::Json GenerationServer::stats_json() const {
  obs::Json o = obs::Json::object();
  o.set("accepted", obs::Json(accepted_.value()));
  o.set("rejected", obs::Json(rejected_.value()));
  o.set("timeouts", obs::Json(timeouts_.value()));
  o.set("cancelled", obs::Json(cancelled_.value()));
  o.set("completed", obs::Json(completed_.value()));
  o.set("batches", obs::Json(batches_.value()));
  o.set("batched_samples", obs::Json(batched_samples_.value()));
  o.set("joins", obs::Json(joins_.value()));
  o.set("leaves", obs::Json(leaves_.value()));
  o.set("repacks", obs::Json(repacks_.value()));
  o.set("queue_depth", obs::Json(queue_depth()));
  o.set("accepting", obs::Json(accepting()));
  o.set("max_queue", obs::Json(cfg_.max_queue));
  o.set("max_batch_samples", obs::Json(cfg_.max_batch_samples));
  o.set("shards", obs::Json(shards_.size()));
  obs::Json shard_arr = obs::Json::array();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    obs::Json s = obs::Json::object();
    s.set("queue", obs::Json(shard_depth(i)));
    s.set("served", obs::Json(shards_[i]->served.load()));
    shard_arr.push_back(std::move(s));
  }
  o.set("shard_state", std::move(shard_arr));
  obs::Json c = obs::Json::object();
  c.set("enabled", obs::Json(cache_.enabled()));
  c.set("capacity", obs::Json(cache_.capacity()));
  c.set("size", obs::Json(cache_.size()));
  c.set("hits", obs::Json(cache_.hits()));
  c.set("misses", obs::Json(cache_.misses()));
  c.set("evictions", obs::Json(cache_.evictions()));
  o.set("cache", std::move(c));
  o.set("trace_dropped_spans", obs::Json(obs::trace_dropped()));
  o.set("request_log_lines", obs::Json(reqlog_.lines_written()));
  o.set("models", registry_->to_json());
  return o;
}

bool GenerationServer::write_stats(const std::string& path) const {
  return obs::write_text_atomic(path, stats_json().dump(2) + "\n");
}

obs::Json GenerationServer::metrics_json() const {
  obs::Json o = obs::metrics_snapshot_json();
  o.set("rolling", rolling_.snapshot_json(obs::trace_now_ns()));
  return o;
}

obs::Json GenerationServer::health_json() const {
  const std::uint64_t now = obs::trace_now_ns();
  const std::uint64_t win = obs::kShortWindowNs;
  const obs::WindowStats acc =
      rolling_.counter_window("serve.accepted", win, now);
  const obs::WindowStats rej =
      rolling_.counter_window("serve.rejected", win, now);
  const obs::WindowStats tmo =
      rolling_.counter_window("serve.timeouts", win, now);
  const double total = static_cast<double>(acc.count + rej.count);
  const double errors = static_cast<double>(rej.count + tmo.count);
  const double err_rate = total > 0 ? std::min(errors / total, 1.0) : 0.0;

  const std::size_t depth = queue_depth();
  const double qfrac =
      static_cast<double>(depth) / static_cast<double>(cfg_.max_queue);
  // Hysteretic overload latch: trip high, release low, so scrapers see a
  // stable verdict instead of flapping around one threshold.
  bool over = overloaded_.load(std::memory_order_relaxed);
  if (!over && (qfrac >= 0.8 || err_rate >= 0.5))
    over = true;
  else if (over && qfrac < 0.5 && err_rate < 0.25)
    over = false;
  overloaded_.store(over, std::memory_order_relaxed);

  obs::Json o = obs::Json::object();
  const bool draining = !accepting();
  o.set("status", obs::Json(draining ? "draining"
                            : over   ? "overloaded"
                                     : "ok"));
  o.set("accepting", obs::Json(!draining));
  o.set("overloaded", obs::Json(over));
  o.set("queue_depth", obs::Json(depth));
  o.set("max_queue", obs::Json(cfg_.max_queue));
  o.set("shards", obs::Json(shards_.size()));
  o.set("error_rate", obs::Json(err_rate));
  o.set("requests_per_s", obs::Json(acc.rate_per_s + rej.rate_per_s));
  o.set("window_s", obs::Json(acc.window_s));
  o.set("trace_dropped_spans", obs::Json(obs::trace_dropped()));
  return o;
}

}  // namespace pp::serve
