#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include <unordered_map>

#include "common/error.hpp"
#include "diffusion/convert.hpp"
#include "expand/expander.hpp"
#include "diffusion/ddpm.hpp"
#include "obs/expo.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pp::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct ServeMetrics {
  obs::Counter& accepted = obs::metrics().counter("serve.accepted");
  obs::Counter& rejected = obs::metrics().counter("serve.rejected");
  obs::Counter& timeouts = obs::metrics().counter("serve.timeouts");
  obs::Counter& cancelled = obs::metrics().counter("serve.cancelled");
  obs::Counter& completed = obs::metrics().counter("serve.completed");
  obs::Counter& batches = obs::metrics().counter("serve.batches");
  obs::Counter& coalesced = obs::metrics().counter("serve.coalesced");
  obs::Counter& samples = obs::metrics().counter("serve.samples");
  // Continuous batching: samples that joined an already-running batch at a
  // step boundary, samples that left early (cancel / mid-flight deadline),
  // and latent-tensor re-pack events (a join/leave/finish that left other
  // samples still running).
  obs::Counter& joins = obs::metrics().counter("serve.joins");
  obs::Counter& leaves = obs::metrics().counter("serve.leaves");
  obs::Counter& repacks = obs::metrics().counter("serve.repacks");
  // Generation cache: hits served inline at admission (bitwise identical
  // to cold execution), misses counted only when a cache is configured.
  obs::Counter& cache_hits = obs::metrics().counter("serve.cache.hits");
  obs::Counter& cache_misses = obs::metrics().counter("serve.cache.misses");
  obs::Gauge& queue_depth = obs::metrics().gauge("serve.queue_depth");
  obs::Histogram& wait_ms = obs::metrics().histogram("serve.wait_ms");
  obs::Histogram& e2e_ms = obs::metrics().histogram("serve.e2e_ms");
  obs::Histogram& batch_samples = obs::metrics().histogram("serve.batch_samples");
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
      rolling_(cfg_.rolling),
      reqlog_(cfg_.request_log) {
  PP_REQUIRE(registry_ != nullptr);
  PP_REQUIRE(cfg_.max_queue >= 1);
  PP_REQUIRE(cfg_.max_batch_samples >= 1);
  PP_REQUIRE(cfg_.shards >= 1);
  shards_.reserve(cfg_.shards);
  for (std::size_t i = 0; i < cfg_.shards; ++i) {
    auto sh = std::make_unique<Shard>();
    sh->depth =
        &obs::metrics().gauge("serve.shard." + std::to_string(i) + ".depth");
    shards_.push_back(std::move(sh));
  }
  // The serve.* metrics are process-global; tracking them here baselines
  // this instance's rolling windows at its own construction.
  rolling_.track_counter("serve.accepted");
  rolling_.track_counter("serve.rejected");
  rolling_.track_counter("serve.completed");
  rolling_.track_counter("serve.timeouts");
  rolling_.track_counter("serve.cancelled");
  rolling_.track_histogram("serve.e2e_ms");
  rolling_.track_histogram("serve.wait_ms");
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
    sh->depth->set(0.0);
  }
  pending_total_.store(0);
  serve_metrics().queue_depth.set(0.0);
  for (const PendingPtr& p : leftover)
    finish_response(p, GenResponse::fail(p->req.id, ErrorCode::kDraining,
                                         "server stopped"));
}

void GenerationServer::start() {
  std::lock_guard<std::mutex> lk(lifecycle_m_);
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
    if (!workers_started_ && pending_total_.load() > 0) {
      // Never ran: start now so queued work still completes (graceful).
      workers_started_ = true;
      for (auto& shp : shards_) {
        Shard* sh = shp.get();
        sh->worker = std::thread([this, sh] { worker_loop(*sh); });
      }
    }
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

bool GenerationServer::expired(const PendingPtr& p, Clock::time_point now) {
  return p->has_deadline && now >= p->deadline;
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

std::deque<GenerationServer::PendingPtr>::iterator
GenerationServer::pop_locked(Shard& sh,
                             std::deque<PendingPtr>::iterator it) {
  auto next = sh.queue.erase(it);
  pending_total_.fetch_sub(1);
  serve_metrics().queue_depth.set(
      static_cast<double>(pending_total_.load()));
  sh.depth->set(static_cast<double>(sh.queue.size()));
  return next;
}

void GenerationServer::finish_response(const PendingPtr& p, GenResponse resp) {
  ServeMetrics& m = serve_metrics();
  const Clock::time_point now = Clock::now();
  resp.e2e_ms = ms_between(p->enqueue, now);
  switch (resp.error) {
    case ErrorCode::kTimeout:
      timeouts_.fetch_add(1);
      m.timeouts.add(1);
      break;
    case ErrorCode::kCancelled:
      cancelled_.fetch_add(1);
      m.cancelled.add(1);
      break;
    case ErrorCode::kNone:
      completed_.fetch_add(1);
      m.completed.add(1);
      m.e2e_ms.observe(resp.e2e_ms);
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
    reqlog_.write(request_event(p->req, resp.error, p->wait_ms_snapshot,
                                run_ms, resp.e2e_ms, p->step_batches,
                                resp.batch_samples, p->joined_running,
                                false, p->expand_windows, p->expand_waves));
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
    rejected_.fetch_add(1);
    m.rejected.add(1);
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
      accepted_.fetch_add(1);
      m.accepted.add(1);
      completed_.fetch_add(1);
      m.completed.add(1);
      m.cache_hits.add(1);
      m.e2e_ms.observe(hit.e2e_ms);
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
      accepted_.fetch_add(1);
      m.accepted.add(1);
      m.queue_depth.set(static_cast<double>(pending_total_.load()));
      sh.depth->set(static_cast<double>(sh.queue.size()));
      sh.cv.notify_one();
      return;
    }
    pending_total_.fetch_sub(1);
  }
  // Queue full. The callback already moved into `p`, so reject through it
  // (outside the lock).
  rejected_.fetch_add(1);
  m.rejected.add(1);
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
  PendingPtr victim;
  for (auto& shp : shards_) {
    Shard& sh = *shp;
    bool flagged_inflight = false;
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
          if (p->req.id == id) {
            p->cancelled.store(true);
            flagged_inflight = true;
            break;
          }
        }
      }
    }
    if (flagged_inflight) return true;  // executor delivers the response
    if (victim) break;
  }
  if (!victim) return false;
  victim->cancelled.store(true);
  finish_response(victim, GenResponse::fail(id, ErrorCode::kCancelled,
                                            "cancelled while queued"));
  return true;
}

void GenerationServer::worker_loop(Shard& sh) {
  ServeMetrics& m = serve_metrics();

  // One running request inside the continuous batch. `mid` namespaces its
  // sample tags (tag = mid * kTagStride + sample index), `remaining` counts
  // samples still inside the InpaintState, `raws` collects finished samples
  // at their request-order position the moment each one's schedule ends.
  // Expansion state for one expand member: the wavefront engine plus the
  // windows currently inside the InpaintState, keyed by the per-window
  // sequence number that namespaces their tags (tag = mid * kTagStride +
  // seq). The member stays resident across steps, feeding ready windows
  // into the running batch and committing them as their samples finish.
  struct ExpandRun {
    std::unique_ptr<expand::WavefrontExpander> ex;
    std::unordered_map<std::uint64_t, expand::WindowWork> inflight;
    std::uint64_t next_seq = 0;
    bool failed = false;      ///< feed/commit raised; drain then fail
    std::string fail_msg;
  };
  struct Member {
    PendingPtr p;
    std::uint64_t mid = 0;
    int remaining = 0;  ///< samples (expand: windows) still in the state
    int peak_batch = 0;  ///< max co-resident samples while this request ran
    std::vector<Raster> raws;
    std::vector<std::uint64_t> finish_bases;
    std::unique_ptr<ExpandRun> xp;  ///< non-null = expand member
  };
  constexpr std::uint64_t kTagStride = 1ull << 32;

  ModelRegistry::EntryPtr entry;  ///< the running batch's registry entry
  InpaintState st;
  std::vector<Member> members;
  std::uint64_t next_mid = 0;

  auto drop_inflight = [&](const PendingPtr& p) {
    std::lock_guard<std::mutex> lk(sh.m);
    sh.inflight.erase(
        std::remove(sh.inflight.begin(), sh.inflight.end(), p),
        sh.inflight.end());
  };
  auto member_tags = [](std::uint64_t mid, int count) {
    std::vector<std::uint64_t> tags;
    tags.reserve(static_cast<std::size_t>(count));
    for (int k = 0; k < count; ++k)
      tags.push_back(mid * kTagStride + static_cast<std::uint64_t>(k));
    return tags;
  };
  // Abandon the whole running batch (internal error / hard stop): every
  // member completes with `code` — cancelled/expired members keep their own
  // verdict — and the state resets.
  auto fail_all = [&](ErrorCode code, const std::string& msg) {
    for (Member& mem : members) {
      drop_inflight(mem.p);
      ErrorCode c = code;
      if (mem.p->cancelled.load())
        c = ErrorCode::kCancelled;
      else if (expired(mem.p, Clock::now()))
        c = ErrorCode::kTimeout;
      finish_response(mem.p, GenResponse::fail(mem.p->req.id, c, msg));
    }
    members.clear();
    st = InpaintState();
    entry.reset();
  };
  // Finish tail + response for a member whose every sample completed.
  auto complete_member = [&](Member& mem) {
    const PendingPtr& p = mem.p;
    sh.served.fetch_add(1);
    if (p->cancelled.load()) {
      finish_response(p, GenResponse::fail(p->req.id, ErrorCode::kCancelled,
                                           "cancelled while executing"));
      return;
    }
    GenResponse resp;
    resp.id = p->req.id;
    resp.wait_ms = p->wait_ms_snapshot;
    resp.batch_samples = mem.peak_batch;
    if (mem.xp) {
      if (mem.xp->failed) {
        finish_response(p, GenResponse::fail(p->req.id, ErrorCode::kInternal,
                                             mem.xp->fail_msg));
        return;
      }
      const expand::ExpandStats stats = mem.xp->ex->stats();
      resp.is_expand = true;
      resp.target_w = p->req.target_w;
      resp.target_h = p->req.target_h;
      resp.expand_windows = stats.windows_total;
      resp.expand_waves = stats.waves;
      resp.expand_seam_violations = stats.seam_violations;
      resp.expand_drc_pass_rate = stats.drc_pass_rate();
      try {
        resp.patterns.push_back(mem.xp->ex->take_canvas());
      } catch (const std::exception& e) {
        finish_response(
            p, GenResponse::fail(p->req.id, ErrorCode::kInternal, e.what()));
        return;
      }
      resp.legal.push_back(stats.drc_checked == stats.drc_clean);
      p->expand_windows = stats.windows_total;
      p->expand_waves = stats.waves;
      finish_response(p, std::move(resp));
      return;
    }
    if (p->req.finish) {
      const int clip = entry->cfg.clip_size;
      const Raster tmpl = p->req.op == GenRequest::Op::kInpaint
                              ? p->req.tmpl
                              : Raster(clip, clip, 0);
      std::vector<Raster> tmpls(mem.raws.size(), tmpl);
      std::vector<GenerationRecord> recs;
      try {
        recs = entry->pp->finish_samples(mem.raws, tmpls, mem.finish_bases);
      } catch (const std::exception& e) {
        finish_response(
            p, GenResponse::fail(p->req.id, ErrorCode::kInternal, e.what()));
        return;
      }
      for (const GenerationRecord& rec : recs) {
        resp.patterns.push_back(rec.denoised);
        resp.legal.push_back(rec.legal);
      }
    } else {
      resp.patterns = mem.raws;
    }
    finish_response(p, std::move(resp));
  };

  for (;;) {
    std::vector<PendingPtr> expired_now;
    std::vector<PendingPtr> joined;
    {
      std::unique_lock<std::mutex> lk(sh.m);
      if (members.empty()) {
        entry.reset();
        // Also drop the drained InpaintState: compact() keeps the clip
        // shape (h_/w_) after the last member completes, and a stale shape
        // would fail every join for a model with a different clip size.
        st = InpaintState();
        sh.cv.wait(lk, [&] {
          return stop_hard_.load() || draining_.load() || !sh.queue.empty();
        });
        if (sh.queue.empty()) {
          if (draining_.load() || stop_hard_.load()) break;
          continue;
        }
        if (stop_hard_.load()) break;  // destructor flushes the queue
      }

      // Deadline pass: anything already expired completes as "timeout"
      // without touching the model.
      const Clock::time_point now = Clock::now();
      for (auto it = sh.queue.begin(); it != sh.queue.end();) {
        if (expired(*it, now)) {
          expired_now.push_back(*it);
          it = pop_locked(sh, it);
        } else {
          ++it;
        }
      }

      // Join pass (the step boundary): when idle, the first queued request
      // fixes the batch's registry entry; every queued request on the same
      // entry then joins until the sample cap. steps/eta need NOT match —
      // the sampler schedule is per-sample state, not a batch property.
      // Fairness: once the queue head waits on a DIFFERENT entry than the
      // running batch, stop admitting new joins so the batch drains and the
      // head gets served — otherwise sustained same-model traffic starves
      // other models' requests unboundedly.
      const bool head_blocked = !members.empty() && !sh.queue.empty() &&
                                sh.queue.front()->entry.get() != entry.get();
      if (!stop_hard_.load() && !head_blocked) {
        int active = st.active();
        for (auto it = sh.queue.begin(); it != sh.queue.end();) {
          const PendingPtr& p = *it;
          if (!entry) entry = p->entry;
          const bool fits = active + p->req.count <= cfg_.max_batch_samples;
          if (p->entry.get() == entry.get() && fits) {
            active += p->req.count;
            joined.push_back(p);
            sh.inflight.push_back(p);
            it = pop_locked(sh, it);
            if (active >= cfg_.max_batch_samples) break;
          } else {
            ++it;
          }
        }
      }
    }

    for (const PendingPtr& p : expired_now)
      finish_response(p, GenResponse::fail(p->req.id, ErrorCode::kTimeout,
                                           "deadline expired in queue"));

    if (stop_hard_.load()) {
      for (const PendingPtr& p : joined) {
        drop_inflight(p);
        finish_response(p, GenResponse::fail(p->req.id, ErrorCode::kDraining,
                                             "server stopped"));
      }
      if (!members.empty())
        fail_all(ErrorCode::kDraining, "batch abandoned mid-flight");
      break;
    }

    // Execute the joins: derive each request's stream bases per the
    // sequential reference semantics (Rng(seed) -> count gen bases, then
    // count finish bases; serve/protocol.hpp), assemble its planes and
    // extend the running state. Per-sample noise is a pure function of
    // (base, step index), so joining late cannot shift anyone's bits.
    if (!joined.empty()) {
      const Clock::time_point now = Clock::now();
      const int clip = entry->cfg.clip_size;
      const bool was_running = !members.empty();
      int joined_samples = 0;
      for (const PendingPtr& p : joined) {
        p->wait_ms_snapshot = ms_between(p->enqueue, now);
        m.wait_ms.observe(p->wait_ms_snapshot);
        p->exec_start = now;
        p->started = true;
        p->joined_running = !members.empty();
        if (p->req.op == GenRequest::Op::kExpand) {
          // An expansion holds a Member slot but contributes no samples at
          // creation: the feed pass below streams its wavefront windows
          // into the state at step boundaries, interleaved with ordinary
          // traffic, so a long expansion never freezes the batch.
          Member mem;
          mem.p = p;
          mem.mid = next_mid++;
          mem.xp = std::make_unique<ExpandRun>();
          expand::ExpandConfig ecfg;
          ecfg.sampler =
              SamplerParams{p->req.steps, static_cast<float>(p->req.eta)};
          ecfg.denoise_windows = p->req.finish;
          try {
            mem.xp->ex = std::make_unique<expand::WavefrontExpander>(
                *entry->pp, p->req.tmpl, p->req.target_w, p->req.target_h,
                p->req.seed, ecfg);
          } catch (const std::exception& e) {
            drop_inflight(p);
            finish_response(p, GenResponse::fail(p->req.id,
                                                 ErrorCode::kInternal,
                                                 e.what()));
            continue;
          }
          members.push_back(std::move(mem));
          continue;
        }
        const int count = p->req.count;
        Member mem;
        mem.p = p;
        mem.mid = next_mid++;
        mem.remaining = count;
        mem.raws.resize(static_cast<std::size_t>(count));
        mem.finish_bases.resize(static_cast<std::size_t>(count));
        Rng rng(p->req.seed);
        std::vector<std::uint64_t> gen_bases(static_cast<std::size_t>(count));
        for (auto& b : gen_bases) b = rng.draw_seed();
        for (auto& b : mem.finish_bases) b = rng.draw_seed();

        nn::Tensor kt, mt;
        if (p->req.op == GenRequest::Op::kInpaint) {
          kt = raster_to_tensor(p->req.tmpl);
          mt = mask_to_tensor(p->req.mask);
        } else {
          kt = nn::Tensor::full({1, 1, clip, clip}, -1.0f);  // empty layout
          mt = nn::Tensor::full({1, 1, clip, clip}, 1.0f);   // regenerate all
        }
        try {
          entry->pp->model().join(
              st, repeat_batch(kt, count), repeat_batch(mt, count), gen_bases,
              member_tags(mem.mid, count),
              SamplerParams{p->req.steps, static_cast<float>(p->req.eta)});
        } catch (const std::exception& e) {
          drop_inflight(p);
          finish_response(
              p, GenResponse::fail(p->req.id, ErrorCode::kInternal, e.what()));
          continue;
        }
        if (!members.empty()) {  // joined a batch that already had samples
          joins_.fetch_add(static_cast<std::uint64_t>(count));
          m.joins.add(static_cast<std::uint64_t>(count));
        }
        joined_samples += count;
        members.push_back(std::move(mem));
      }
      if (joined_samples > 0) {
        if (!was_running) {
          batches_.fetch_add(1);
          m.batches.add(1);
        }
        batched_samples_.fetch_add(static_cast<std::uint64_t>(joined_samples));
        m.samples.add(static_cast<std::uint64_t>(joined_samples));
        m.batch_samples.observe(static_cast<double>(st.active()));
        if (members.size() > 1)
          m.coalesced.add(static_cast<std::uint64_t>(joined.size()));
      }
    }

    // Leave pass: cancelled or deadline-expired members exit NOW, at the
    // step boundary, instead of holding their rows to the end — the
    // remaining latents re-pack and everyone else's bits are untouched.
    if (!members.empty()) {
      const Clock::time_point now = Clock::now();
      std::vector<std::uint64_t> leave_tags;
      for (auto it = members.begin(); it != members.end();) {
        Member& mem = *it;
        const bool cancel = mem.p->cancelled.load();
        const bool late = !cancel && expired(mem.p, now);
        if (!cancel && !late) {
          ++it;
          continue;
        }
        std::vector<std::uint64_t> tags;
        if (mem.xp) {
          // Expand tags are the in-flight window sequence numbers, not
          // 0..count-1; the un-fed remainder of the plan simply never runs
          // and the partial canvas is dropped (no cache insert — the
          // response is a failure).
          tags.reserve(mem.xp->inflight.size());
          for (const auto& kv : mem.xp->inflight)
            tags.push_back(mem.mid * kTagStride + kv.first);
        } else {
          tags = member_tags(mem.mid, mem.p->req.count);
        }
        leave_tags.insert(leave_tags.end(), tags.begin(), tags.end());
        leaves_.fetch_add(static_cast<std::uint64_t>(mem.remaining));
        m.leaves.add(static_cast<std::uint64_t>(mem.remaining));
        drop_inflight(mem.p);
        finish_response(
            mem.p,
            cancel ? GenResponse::fail(mem.p->req.id, ErrorCode::kCancelled,
                                       "cancelled while executing")
                   : GenResponse::fail(mem.p->req.id, ErrorCode::kTimeout,
                                       "deadline expired mid-batch"));
        it = members.erase(it);
      }
      if (!leave_tags.empty()) {
        entry->pp->model().leave(st, leave_tags);
        if (!st.empty()) {
          repacks_.fetch_add(1);
          m.repacks.add(1);
        }
      }
    }
    if (members.empty()) {
      st = InpaintState();
      entry.reset();
      continue;
    }

    // Feed pass: every expansion member streams the ready windows of its
    // current wave into the running batch, up to the spare sample budget.
    // head_blocked does NOT gate this — an admitted expansion is bounded
    // work that must drain for the mismatched head to ever run. When the
    // batch is otherwise idle the budget is at least 1, so an expansion
    // always makes progress.
    for (Member& mem : members) {
      if (!mem.xp || mem.xp->failed) continue;
      ExpandRun& xp = *mem.xp;
      int budget = cfg_.max_batch_samples - st.active();
      if (st.active() == 0) budget = std::max(budget, 1);
      if (budget <= 0) continue;
      std::vector<expand::WindowWork> works;
      try {
        works = xp.ex->acquire(budget);
      } catch (const std::exception& e) {
        xp.failed = true;
        xp.fail_msg = e.what();
        continue;
      }
      if (works.empty()) continue;
      const int n = static_cast<int>(works.size());
      std::vector<std::uint64_t> tags;  // window k: sequence next_seq + k
      for (std::uint64_t k = 0; k < works.size(); ++k)
        tags.push_back(mem.mid * kTagStride + xp.next_seq + k);
      try {
        const expand::WindowBatch in = expand::stack_windows(works);
        entry->pp->model().join(
            st, in.known, in.mask, in.bases, tags,
            SamplerParams{mem.p->req.steps,
                          static_cast<float>(mem.p->req.eta)});
      } catch (const std::exception& e) {
        // join validates before touching the state, so nothing entered;
        // the expansion drains its earlier windows and then fails.
        xp.failed = true;
        xp.fail_msg = e.what();
        continue;
      }
      for (expand::WindowWork& w : works)
        xp.inflight.emplace(xp.next_seq++, std::move(w));
      mem.remaining += n;
      batched_samples_.fetch_add(static_cast<std::uint64_t>(n));
      m.samples.add(static_cast<std::uint64_t>(n));
      m.batch_samples.observe(static_cast<double>(st.active()));
      if (members.size() > 1) {
        joins_.fetch_add(static_cast<std::uint64_t>(n));
        m.joins.add(static_cast<std::uint64_t>(n));
      }
    }

    // One denoising step for every active sample; completed samples come
    // back composited and the state re-packs underneath them. A zero-
    // active state (expansions that just finished feeding or failed) skips
    // straight to completion.
    const int cur = st.active();
    std::vector<FinishedSample> done;
    if (cur > 0) {
      for (Member& mem : members)
        mem.peak_batch = std::max(mem.peak_batch, cur);
      try {
        PP_TRACE_SPAN("serve.step_batch");
        // Flow points emitted INSIDE the open step-batch span bind the
        // request's flow chain to this slice in the chrome export.
        for (Member& mem : members) {
          ++mem.p->step_batches;
          if (mem.p->trace_start_ns != 0)
            obs::record_flow_point("serve.step", mem.p->req.id);
        }
        done = entry->pp->model().step(st);
      } catch (const std::exception& e) {
        fail_all(ErrorCode::kInternal, e.what());
        continue;
      }
    }
    if (!done.empty() && !st.empty()) {
      repacks_.fetch_add(1);
      m.repacks.add(1);
    }

    // Route finished samples home; a member whose last sample just landed
    // responds immediately — it does not wait for the batch to drain.
    for (const FinishedSample& f : done) {
      const std::uint64_t mid = f.tag / kTagStride;
      const std::uint64_t k = f.tag % kTagStride;
      for (Member& mem : members) {
        if (mem.mid != mid) continue;
        if (mem.xp) {
          auto w = mem.xp->inflight.find(k);
          if (w != mem.xp->inflight.end()) {
            try {
              mem.xp->ex->commit(w->second, tensor_to_rasters(f.x)[0]);
            } catch (const std::exception& e) {
              mem.xp->failed = true;
              mem.xp->fail_msg = e.what();
            }
            mem.xp->inflight.erase(w);
            --mem.remaining;
          }
        } else {
          mem.raws[static_cast<std::size_t>(k)] = tensor_to_rasters(f.x)[0];
          --mem.remaining;
        }
        break;
      }
    }
    for (auto it = members.begin(); it != members.end();) {
      // Ordinary members complete when every sample landed; an expansion
      // completes when nothing is in flight AND the wavefront is exhausted
      // (or it failed and has now drained).
      const bool member_done =
          it->xp ? (it->remaining == 0 &&
                    (it->xp->failed || it->xp->ex->done()))
                 : it->remaining == 0;
      if (!member_done) {
        ++it;
        continue;
      }
      complete_member(*it);
      drop_inflight(it->p);
      it = members.erase(it);
    }
  }
}

obs::Json GenerationServer::stats_json() const {
  obs::Json o = obs::Json::object();
  o.set("accepted", obs::Json(accepted_.load()));
  o.set("rejected", obs::Json(rejected_.load()));
  o.set("timeouts", obs::Json(timeouts_.load()));
  o.set("cancelled", obs::Json(cancelled_.load()));
  o.set("completed", obs::Json(completed_.load()));
  o.set("batches", obs::Json(batches_.load()));
  o.set("batched_samples", obs::Json(batched_samples_.load()));
  o.set("joins", obs::Json(joins_.load()));
  o.set("leaves", obs::Json(leaves_.load()));
  o.set("repacks", obs::Json(repacks_.load()));
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
  o.set("rolling", rolling_.snapshot_json(obs::trace_now_ns()));
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
  const std::uint64_t win = rolling_.config().short_window_ns;
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
