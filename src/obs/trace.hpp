// Scoped-span tracing with per-thread lock-free buffers.
//
//   void Ddpm::inpaint(...) {
//     PP_TRACE_SPAN("ddpm.inpaint");
//     ...
//   }
//
// Recording model: each thread owns a fixed-capacity event buffer it alone
// writes (append + release-store of the count — no locks, no CAS). The
// global registry only tracks buffer pointers, so a span end never
// contends with other threads. When a buffer fills, further events on that
// thread are counted as dropped instead of wrapping, which keeps exported
// traces causally complete; `trace_dropped()` reports the loss.
//
// Cost: disabled (the default) a span is one relaxed atomic load and a
// branch — cheap enough to stay in the per-conv hot path. Enabled, a span
// is two steady_clock reads and one buffer append. Enable with PP_TRACE=1
// (read once on first use) or set_trace_enabled(true). Compile out
// entirely with -DPP_DISABLE_TRACE.
//
// Span names must be string literals (or otherwise outlive the process):
// only the pointer is recorded.
//
// Exports (both honor every thread's buffer):
//   * write_chrome_trace(path) — chrome://tracing / Perfetto "X" events;
//   * span_summary() — per-name count/total/p50/p95 aggregate.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pp::obs {

class Json;

namespace detail {

extern std::atomic<int> g_trace_state;  // -1 uninit, 0 off, 1 on
bool init_trace_state();                // reads PP_TRACE

std::uint64_t now_ns();  // monotonic, relative to process trace epoch
void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t end_ns);
void record_span_corr(const char* name, std::uint64_t start_ns,
                      std::uint64_t end_ns, std::uint64_t corr);
void record_flow_point(const char* name, std::uint64_t corr);

extern thread_local int t_span_depth;

}  // namespace detail

inline bool trace_enabled() {
  int s = detail::g_trace_state.load(std::memory_order_relaxed);
  if (s < 0) return detail::init_trace_state();
  return s != 0;
}

/// Current trace-epoch timestamp, for callers recording manual spans
/// (e.g. a request span whose start was captured on another thread).
inline std::uint64_t trace_now_ns() { return detail::now_ns(); }

/// Records a completed span carrying a correlation id (trace id). In the
/// chrome export, every event sharing a non-zero `corr` is chained into one
/// flow (arrows across threads); serve uses corr = request id to link a
/// `serve.request` span to the step batches it rode. No-op when tracing is
/// disabled.
inline void record_span_with_corr(const char* name, std::uint64_t start_ns,
                                  std::uint64_t end_ns, std::uint64_t corr) {
  if (trace_enabled()) detail::record_span_corr(name, start_ns, end_ns, corr);
}

/// Records an instant flow point at now: a zero-duration marker that joins
/// the corr chain from inside whatever span is open on this thread (serve
/// emits one per request per step batch). Excluded from span_summary().
/// No-op when tracing is disabled.
inline void record_flow_point(const char* name, std::uint64_t corr) {
  if (trace_enabled()) detail::record_flow_point(name, corr);
}

void set_trace_enabled(bool on);

/// Bounds of PP_TRACE_BUF, in events per thread (obs::env_bounded; a
/// malformed value keeps the default of 65536). An event takes 40 B, so the
/// ceiling of 2^24 events is 640 MiB per thread.
inline constexpr std::size_t kMinTraceBufEvents = 64;
inline constexpr std::size_t kMaxTraceBufEvents = std::size_t{1} << 24;

/// Clears every thread's buffer and the dropped counter. Only call while
/// no thread is actively recording spans (buffers are written lock-free by
/// their owners).
void reset_trace();

/// Events lost to full buffers since the last reset.
std::uint64_t trace_dropped();

/// Total events currently buffered across all threads.
std::uint64_t trace_event_count();

/// RAII span. Records only if tracing was enabled at construction.
class SpanGuard {
 public:
  explicit SpanGuard(const char* name) {
    if (trace_enabled()) {
      name_ = name;
      ++detail::t_span_depth;
      start_ = detail::now_ns();
    }
  }
  ~SpanGuard() {
    if (name_) {
      std::uint64_t end = detail::now_ns();
      --detail::t_span_depth;
      detail::record_span(name_, start_, end);
    }
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ = 0;
};

/// One exported event (used by tests; the chrome exporter consumes the
/// same data).
struct TraceEventView {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;
  int depth = 0;
  std::uint64_t corr = 0;  ///< correlation id, 0 = not part of a flow
  bool flow_point = false;  ///< instant marker, not a duration span
};
std::vector<TraceEventView> trace_events();

/// Aggregate over all buffered events for one span name. Percentiles are
/// exact (computed from the full duration list).
struct SpanStat {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
};
std::vector<SpanStat> span_summary();

/// Full chrome://tracing document {"traceEvents": [...]}.
Json chrome_trace_json();
/// Writes chrome_trace_json() through write_text_atomic. Returns false on
/// I/O failure.
bool write_chrome_trace(const std::string& path);

}  // namespace pp::obs

#ifndef PP_DISABLE_TRACE
#define PP_OBS_CONCAT2(a, b) a##b
#define PP_OBS_CONCAT(a, b) PP_OBS_CONCAT2(a, b)
#define PP_TRACE_SPAN(name) \
  ::pp::obs::SpanGuard PP_OBS_CONCAT(pp_span_, __LINE__) { name }
#else
#define PP_TRACE_SPAN(name) static_cast<void>(0)
#endif
