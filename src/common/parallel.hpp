// Minimal data-parallel helper used by the NN layers and batch generation.
//
// parallel_for splits [begin, end) into contiguous chunks across a shared
// thread pool. The body must be safe to run concurrently on disjoint indices.
#pragma once

#include <cstddef>
#include <functional>

namespace pp {

/// Widest pool PP_THREADS may ask for.
inline constexpr std::size_t kMaxPoolThreads = 256;

/// Number of worker threads the pool uses: the PP_THREADS environment
/// variable if it is a whole number in [1, kMaxPoolThreads] (1 means fully
/// serial; obs::env_bounded), else hardware_concurrency capped at 16. Read
/// once at pool creation.
std::size_t parallel_thread_count();

/// Runs fn(i) for every i in [begin, end), potentially in parallel.
/// Falls back to a serial loop for small ranges, and runs inline on the
/// calling thread when called from inside another call's fn. Exceptions
/// thrown by fn are rethrown (first one wins) on the calling thread.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

/// Chunked variant: fn(chunk_begin, chunk_end) per worker, lower overhead.
void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace pp
