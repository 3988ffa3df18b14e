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
/// variable if it is valid (1 means fully serial), else
/// hardware_concurrency capped at 16. Read once at pool creation.
std::size_t parallel_thread_count();

/// Parses a PP_THREADS value. The whole string must be a decimal integer in
/// [1, kMaxPoolThreads]; anything else returns 0, and the pool then logs a
/// warning and takes the default width.
std::size_t parse_thread_count(const char* s);

/// Runs fn(i) for every i in [begin, end), potentially in parallel.
/// Falls back to a serial loop for small ranges. Exceptions thrown by fn are
/// rethrown (first one wins) on the calling thread.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

/// Chunked variant: fn(chunk_begin, chunk_end) per worker, lower overhead.
void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace pp
