// GenerationServer: the request-driven layer over the PatternPaint
// pipeline.
//
// Requests enter a bounded, deadline-aware queue (admission control:
// reject-with-reason when full or draining) that is SHARDED across N
// executor threads. Each registry entry has a stable shard affinity
// (Entry::route, assigned round-robin at load), so all traffic for one
// model lands on one executor and continuous-batch coalescing stays
// effective; the admission bound (max_queue) is GLOBAL across shards, so
// capacity behaves identically at any shard count. Each executor serves
// its shard with STEP-LEVEL CONTINUOUS BATCHING (LLM-serving style) through
// one ContinuousBatch (serve/batch.hpp) for one registry entry — same
// preset + checkpoint + clip + weight generation, by pointer identity, so
// weights can never mix across hot-swap generations. At every
// denoising-step boundary, queued requests for the same entry JOIN the
// running batch (up to max_batch_samples rows), cancelled or
// deadline-expired members LEAVE immediately, and members whose rows finish
// their per-request schedule (`steps`/`eta` knobs) are answered the moment
// their last step runs. A late request therefore waits one step, not one
// whole generation.
//
// Determinism: every sample's noise is a pure function of its own RNG
// stream base (derived from the request seed) and its own step index, and
// the UNet conditions on a per-sample timestep, so ANY interleaving of
// joins/leaves produces output bitwise identical to sequential
// one-request-at-a-time execution (see serve/protocol.hpp, "Determinism
// contract"); batching is purely a latency/throughput decision. The same
// property powers the GENERATION CACHE (serve/cache.hpp): with
// cache_entries > 0, admission consults a content-addressed LRU keyed by
// (model generation, op, seed, count, finish, steps, eta, template hash,
// mask hash) and serves hits inline — bitwise identical to cold execution,
// bypassing the executor entirely.
//
// Deadlines are enforced both in the queue and mid-flight (expired samples
// complete with "timeout"); cancellation takes effect at the next step
// boundary. shutdown() drains gracefully — admission closes, queued work
// completes, then the executors exit. Destruction without shutdown()
// abandons in-flight work at the next step boundary and fails queued
// requests with "draining".
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/rolling.hpp"
#include "serve/batch.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/reqlog.hpp"

namespace pp::serve {

struct ServerConfig {
  std::size_t max_queue = 64;  ///< GLOBAL pending bound (admission control)
  /// Running-batch cap per shard, in samples. Also the largest `count` one
  /// request may carry: admission rejects more as bad_request.
  int max_batch_samples = 16;
  /// Executor shard count. Each shard owns a slice of the request queue
  /// and its own executor thread; a registry entry's traffic always lands
  /// on shard (route % shards). 1 = the single-executor behaviour.
  std::size_t shards = 1;
  /// Generation-cache capacity in responses; 0 disables the cache. Hits
  /// are served at admission, bitwise identical to cold execution.
  std::size_t cache_entries = 0;
  /// Wide-event request log path (one NDJSON line per finished/rejected
  /// request); empty disables logging.
  std::string request_log;
};

class GenerationServer {
 public:
  GenerationServer(std::shared_ptr<ModelRegistry> registry,
                   ServerConfig cfg = {});
  ~GenerationServer();

  GenerationServer(const GenerationServer&) = delete;
  GenerationServer& operator=(const GenerationServer&) = delete;

  /// Launches the executor threads (idempotent). Requests submitted before
  /// start() queue up and are served once they run — tests use this window
  /// to force coalescing deterministically.
  void start();

  /// Graceful drain: closes admission, starts the executors if they never
  /// ran, waits until every queued and in-flight request has completed,
  /// then stops the executors. Idempotent.
  void shutdown();

  /// Asynchronous submit. `done` runs exactly once: inline (on the calling
  /// thread) when admission rejects the request OR the generation cache
  /// hits, on an executor thread otherwise. Admission resolves the model
  /// handle, validates shapes and `count` (1..max_batch_samples) and applies
  /// the global queue bound; every failure is a structured GenResponse,
  /// never an exception.
  void submit(GenRequest req, std::function<void(GenResponse)> done);

  /// Future-returning convenience wrapper over the callback form.
  std::future<GenResponse> submit(GenRequest req);

  /// Cancels a request by id. Queued: removed and completed with
  /// "cancelled" immediately. In-flight: flagged; at the next denoising-step
  /// boundary the executor removes the request's samples from the running
  /// batch (Ddpm::leave) and completes it with "cancelled", while its batch
  /// mates keep running. Returns false when the id is not pending, which
  /// includes a request whose response is already being delivered; true
  /// means the response will be "cancelled".
  bool cancel(std::uint64_t id);

  bool accepting() const { return !draining_.load(); }
  std::size_t queue_depth() const { return pending_total_.load(); }
  std::size_t shard_count() const { return shards_.size(); }
  /// Pending requests queued on one shard (tests/fairness probes).
  std::size_t shard_depth(std::size_t shard) const;
  const GenerationCache& cache() const { return cache_; }

  /// Lifetime serve statistics: queue/admission counters, shard + cache
  /// state and the model registry ("serve stats dump").
  obs::Json stats_json() const;

  /// stats_json() to disk via the atomic tmp+rename discipline.
  bool write_stats(const std::string& path) const;

  /// Live scrape payload for the `metrics` wire op: the registry snapshot
  /// (expo.hpp) plus the rolling windows over this server's own counts and
  /// latencies. Reads without stopping writers.
  obs::Json metrics_json() const;

  /// Health verdict for the `health` wire op: "ok" / "overloaded" /
  /// "draining", this server's rolling error rate, queue depth and trace
  /// loss. The overload flag has hysteresis — it trips at queue >= 80% of
  /// max_queue or a short-window error rate >= 0.5, and only clears below
  /// 50% / 0.25 — so a scraper polling at any cadence sees a stable
  /// signal, not a strobe.
  obs::Json health_json() const;

  /// The wide-event request log (ServerConfig::request_log).
  const RequestLog& request_log() const { return reqlog_; }

 private:
  /// One executor shard: its queue slice, in-flight set and worker
  /// thread. Guarded by its own mutex so shards never contend.
  struct Shard {
    mutable std::mutex m;
    std::condition_variable cv;
    std::deque<PendingPtr> queue;
    std::vector<PendingPtr> inflight;
    /// In-flight requests cancel() found; the executor moves them into
    /// Pending::cancelled under m.
    std::vector<PendingPtr> cancels;
    std::thread worker;
    std::atomic<std::uint64_t> served{0};  ///< requests this shard completed
  };

  Shard& shard_for(const ModelRegistry::Entry* entry);
  /// Starts one executor per shard unless they run. Under lifecycle_m_.
  void start_workers_locked();
  /// Step-level continuous-batching executor (see class comment).
  void worker_loop(Shard& sh);
  /// Under sh.m: flags the requests cancel() queued on the shard.
  static void take_cancels_locked(Shard& sh);
  /// Adds what a shard's batch did to the stats.
  void count(Shard& sh, const BatchCounts& c);
  /// The batch's retire callback: counts what the batch did so far, drops
  /// the request from the in-flight set, then delivers its response.
  void retire(Shard& sh, ContinuousBatch& batch, Retired r);
  /// Wakes every executor after draining_ or stop_hard_ changed.
  void wake_executors();
  void finish_response(const PendingPtr& p, GenResponse resp);
  /// One wide-event line for an admission reject (accepted requests log
  /// from finish_response).
  void log_reject(const GenRequest& req, ErrorCode code);
  /// Removes one request from a shard queue under its lock; pairs every
  /// erase with the global pending-count decrement. Returns the iterator
  /// after the erased element.
  std::deque<PendingPtr>::iterator pop_locked(
      Shard& sh, std::deque<PendingPtr>::iterator it);

  std::shared_ptr<ModelRegistry> registry_;
  ServerConfig cfg_;

  std::vector<std::unique_ptr<Shard>> shards_;
  /// Queued-request count across all shards; the admission bound is
  /// enforced against this, so max_queue means the same thing at any
  /// shard count.
  std::atomic<std::size_t> pending_total_{0};
  GenerationCache cache_;

  std::mutex lifecycle_m_;  ///< guards worker start/stop transitions
  bool workers_started_ = false;
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_hard_{false};

  // This server's own counts and latencies (stats_json, and the rolling
  // windows of metrics_json and health_json).
  obs::Counter accepted_, rejected_, timeouts_, cancelled_, completed_,
      batches_, batched_samples_, joins_, leaves_, repacks_;
  obs::Histogram e2e_ms_, wait_ms_;

  // Live telemetry plane: rolling windows over the members above (declared
  // after them, so no view outlives what it reads), the wide-event log,
  // and the hysteretic overload latch (health_json).
  obs::RollingCollector rolling_;
  RequestLog reqlog_;
  mutable std::atomic<bool> overloaded_{false};
};

}  // namespace pp::serve
