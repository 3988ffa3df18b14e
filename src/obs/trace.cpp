#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <mutex>

#include "obs/env.hpp"
#include "obs/json.hpp"

namespace pp::obs {

namespace detail {

std::atomic<int> g_trace_state{-1};
thread_local int t_span_depth = 0;

namespace {

struct RawEvent {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
  std::uint64_t corr;  // correlation id, 0 = none
  std::int32_t depth;
  std::uint8_t kind;  // 0 = span, 1 = instant flow point
};

std::size_t buffer_capacity() {
  static const std::size_t cap = env_bounded(
      "PP_TRACE_BUF", kMinTraceBufEvents, kMaxTraceBufEvents,
      std::size_t{1} << 16);  // default 2.5 MB/thread
  return cap;
}

/// Owned and written by exactly one thread; readers only consume entries
/// below the release-published count.
struct ThreadBuffer {
  explicit ThreadBuffer(std::uint32_t id)
      : events(new RawEvent[buffer_capacity()]), tid(id) {}

  RawEvent* events;
  std::atomic<std::size_t> count{0};
  std::atomic<std::uint64_t> dropped{0};
  std::uint32_t tid;
};

struct BufferRegistry {
  std::mutex m;
  std::vector<ThreadBuffer*> buffers;  // leaked: outlive their threads
  std::uint32_t next_tid = 1;
};

BufferRegistry& registry() {
  static BufferRegistry* r = new BufferRegistry;
  return *r;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buf = [] {
    BufferRegistry& r = registry();
    std::lock_guard<std::mutex> lk(r.m);
    auto* b = new ThreadBuffer(r.next_tid++);
    r.buffers.push_back(b);
    return b;
  }();
  return *buf;
}

std::chrono::steady_clock::time_point trace_epoch() {
  static const std::chrono::steady_clock::time_point t0 =
      std::chrono::steady_clock::now();
  return t0;
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - trace_epoch())
          .count());
}

namespace {

void append_event(const char* name, std::uint64_t start_ns,
                  std::uint64_t dur_ns, std::uint64_t corr,
                  std::uint8_t kind) {
  ThreadBuffer& buf = local_buffer();
  std::size_t slot = buf.count.load(std::memory_order_relaxed);
  if (slot >= buffer_capacity()) {
    buf.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf.events[slot] = {name, start_ns, dur_ns, corr, t_span_depth, kind};
  buf.count.store(slot + 1, std::memory_order_release);
}

}  // namespace

void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t end_ns) {
  append_event(name, start_ns, end_ns - start_ns, 0, 0);
}

void record_span_corr(const char* name, std::uint64_t start_ns,
                      std::uint64_t end_ns, std::uint64_t corr) {
  append_event(name, start_ns, end_ns - start_ns, corr, 0);
}

void record_flow_point(const char* name, std::uint64_t corr) {
  std::uint64_t t = now_ns();
  append_event(name, t, 0, corr, 1);
}

}  // namespace detail

bool detail::init_trace_state() {
  const char* env = std::getenv("PP_TRACE");
  bool on = env && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
  int expected = -1;
  detail::g_trace_state.compare_exchange_strong(expected, on ? 1 : 0,
                                                std::memory_order_relaxed);
  return detail::g_trace_state.load(std::memory_order_relaxed) != 0;
}

void set_trace_enabled(bool on) {
  detail::g_trace_state.store(on ? 1 : 0, std::memory_order_relaxed);
}

void reset_trace() {
  auto& r = detail::registry();
  std::lock_guard<std::mutex> lk(r.m);
  for (auto* b : r.buffers) {
    b->count.store(0, std::memory_order_relaxed);
    b->dropped.store(0, std::memory_order_relaxed);
  }
}

std::uint64_t trace_dropped() {
  auto& r = detail::registry();
  std::lock_guard<std::mutex> lk(r.m);
  std::uint64_t total = 0;
  for (auto* b : r.buffers) total += b->dropped.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t trace_event_count() {
  auto& r = detail::registry();
  std::lock_guard<std::mutex> lk(r.m);
  std::uint64_t total = 0;
  for (auto* b : r.buffers) total += b->count.load(std::memory_order_acquire);
  return total;
}

std::vector<TraceEventView> trace_events() {
  auto& r = detail::registry();
  std::lock_guard<std::mutex> lk(r.m);
  std::vector<TraceEventView> out;
  for (auto* b : r.buffers) {
    std::size_t n = b->count.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& e = b->events[i];
      out.push_back(
          {e.name, e.start_ns, e.dur_ns, b->tid, e.depth, e.corr, e.kind == 1});
    }
  }
  return out;
}

std::vector<SpanStat> span_summary() {
  std::vector<TraceEventView> events = trace_events();
  // Instant flow points are markers, not spans — their zero durations
  // would poison the per-name percentiles.
  events.erase(std::remove_if(events.begin(), events.end(),
                              [](const TraceEventView& e) { return e.flow_point; }),
               events.end());
  // Group durations by name. Event volume is bench-scale (<= buffer caps),
  // so sort-based grouping is plenty.
  std::sort(events.begin(), events.end(),
            [](const TraceEventView& a, const TraceEventView& b) {
              return a.name < b.name;
            });
  std::vector<SpanStat> stats;
  std::size_t i = 0;
  while (i < events.size()) {
    std::size_t j = i;
    std::vector<double> durs;
    while (j < events.size() && events[j].name == events[i].name) {
      durs.push_back(static_cast<double>(events[j].dur_ns));
      ++j;
    }
    std::sort(durs.begin(), durs.end());
    auto rank = [&](double q) {
      std::size_t k = static_cast<std::size_t>(q * static_cast<double>(durs.size() - 1) + 0.5);
      return durs[std::min(k, durs.size() - 1)] / 1e6;
    };
    SpanStat s;
    s.name = events[i].name;
    s.count = durs.size();
    for (double d : durs) s.total_ms += d / 1e6;
    s.p50_ms = rank(0.50);
    s.p95_ms = rank(0.95);
    stats.push_back(std::move(s));
    i = j;
  }
  return stats;
}

Json chrome_trace_json() {
  std::vector<TraceEventView> all = trace_events();
  Json events = Json::array();
  // Duration slices first (tests and scrapers rely on events[0].ph == "X");
  // instant flow points only appear through the flow chains below.
  for (const TraceEventView& e : all) {
    if (e.flow_point) continue;
    Json o = Json::object();
    o.set("name", Json(e.name));
    o.set("ph", Json("X"));
    o.set("ts", Json(static_cast<double>(e.start_ns) / 1e3));   // µs
    o.set("dur", Json(static_cast<double>(e.dur_ns) / 1e3));
    o.set("pid", Json(1));
    o.set("tid", Json(static_cast<std::size_t>(e.tid)));
    events.push_back(std::move(o));
  }
  // Correlated events become flow arrows: per corr id, chain every event
  // chronologically with start ("s") / step ("t") / end ("f") phases. The
  // viewer binds each to the slice enclosing its ts on that tid, drawing
  // request -> step-batch arrows across threads.
  std::vector<const TraceEventView*> flows;
  for (const TraceEventView& e : all)
    if (e.corr != 0) flows.push_back(&e);
  std::sort(flows.begin(), flows.end(),
            [](const TraceEventView* a, const TraceEventView* b) {
              if (a->corr != b->corr) return a->corr < b->corr;
              return a->start_ns < b->start_ns;
            });
  std::size_t i = 0;
  while (i < flows.size()) {
    std::size_t j = i;
    while (j < flows.size() && flows[j]->corr == flows[i]->corr) ++j;
    if (j - i >= 2) {  // a chain needs two ends
      for (std::size_t k = i; k < j; ++k) {
        const TraceEventView& e = *flows[k];
        Json o = Json::object();
        o.set("name", Json("serve.flow"));
        o.set("cat", Json("flow"));
        o.set("ph", Json(k == i ? "s" : k + 1 == j ? "f" : "t"));
        if (k + 1 == j) o.set("bp", Json("e"));
        o.set("id", Json(e.corr));
        o.set("ts", Json(static_cast<double>(e.start_ns) / 1e3));
        o.set("pid", Json(1));
        o.set("tid", Json(static_cast<std::size_t>(e.tid)));
        events.push_back(std::move(o));
      }
    }
    i = j;
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", Json("ms"));
  return doc;
}

bool write_chrome_trace(const std::string& path) {
  return write_text_atomic(path, chrome_trace_json().dump());
}

}  // namespace pp::obs
