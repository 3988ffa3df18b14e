#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/env.hpp"

namespace pp {
namespace {

/// True while this thread executes chunks of a pool job. The pool runs one
/// job at a time, so a parallel_for called from inside a chunk runs inline
/// instead of waiting for the job its own caller holds.
thread_local bool t_in_chunk = false;

/// One parallel_for dispatch. Shared (via shared_ptr) between the caller
/// and every worker that observes it, so a worker waking late — even after
/// run() returned — only ever touches this struct, finds the chunk counter
/// exhausted, and never dereferences the (by then dangling) callback.
struct Job {
  const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
  std::size_t begin = 0, end = 0, chunk = 1;
  std::atomic<std::size_t> next_chunk{0};
  /// Threads currently between claiming their first chunk and finishing
  /// their last. run() completes when the caller has drained the chunk
  /// counter and this returns to zero.
  std::atomic<int> active{0};
  std::mutex err_m;
  std::exception_ptr first_error;
};

/// A tiny persistent thread pool. Workers wait for a job, execute chunk
/// callbacks, and signal completion. Created lazily on first use.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  std::size_t size() const { return workers_.size() + 1; }

  void run(std::size_t begin, std::size_t end,
           const std::function<void(std::size_t, std::size_t)>& fn) {
    std::size_t n = end - begin;
    std::size_t nthreads = std::min(size(), n);
    if (nthreads <= 1 || t_in_chunk) {
      fn(begin, end);
      return;
    }
    std::unique_lock<std::mutex> guard(job_mutex_);  // one job at a time
    auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->begin = begin;
    job->end = end;
    job->chunk = (n + nthreads - 1) / nthreads;
    {
      std::lock_guard<std::mutex> lk(m_);
      current_job_ = job;
      ++generation_;
    }
    cv_.notify_all();
    // The calling thread participates and, by only returning once the
    // chunk counter is exhausted, guarantees every chunk is claimed before
    // the completion wait below.
    work_chunks(*job);
    {
      std::unique_lock<std::mutex> lk(m_);
      done_cv_.wait(lk, [&] {
        return job->active.load(std::memory_order_acquire) == 0;
      });
      current_job_.reset();
    }
    if (job->first_error) std::rethrow_exception(job->first_error);
  }

 private:
  Pool() {
    // PP_THREADS overrides the pool width (1 = fully serial), for perf
    // comparisons and deterministic sanitizer runs.
    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t n = obs::env_bounded(
        "PP_THREADS", 1, kMaxPoolThreads,
        hw == 0 ? 4 : std::min<std::size_t>(hw, 16));
    for (std::size_t i = 0; i + 1 < n; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lk(m_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lk(m_);
        cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        job = current_job_;
      }
      if (!job) continue;
      work_chunks(*job);
    }
  }

  /// Claims and executes chunks. Registers in job.active around the whole
  /// claim/execute phase, so `active == 0` while the counter is exhausted
  /// means no callback invocation is in flight anywhere.
  void work_chunks(Job& job) {
    job.active.fetch_add(1, std::memory_order_acquire);
    t_in_chunk = true;
    for (;;) {
      std::size_t c = job.next_chunk.fetch_add(1, std::memory_order_relaxed);
      std::size_t lo = job.begin + c * job.chunk;
      if (lo >= job.end || c * job.chunk >= job.end - job.begin) break;
      std::size_t hi = std::min(job.end, lo + job.chunk);
      try {
        (*job.fn)(lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lk(job.err_m);
        if (!job.first_error) job.first_error = std::current_exception();
      }
    }
    t_in_chunk = false;
    if (job.active.fetch_sub(1, std::memory_order_release) == 1) {
      std::lock_guard<std::mutex> lk(m_);
      done_cv_.notify_all();
    }
  }

  std::vector<std::thread> workers_;
  std::mutex m_;
  std::mutex job_mutex_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Job> current_job_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

}  // namespace

std::size_t parallel_thread_count() { return Pool::instance().size(); }

void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  Pool::instance().run(begin, end, fn);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  if (end - begin < 4) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  parallel_for_chunks(begin, end, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  });
}

}  // namespace pp
