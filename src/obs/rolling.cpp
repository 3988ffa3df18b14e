#include "obs/rolling.hpp"

#include <algorithm>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace pp::obs {

namespace {

// One slot per sub-window in the long window, plus slack so the window's
// start boundary is still resident when queried right after a rollover.
constexpr std::size_t kRingCapacity = kLongWindowNs / kSubWindowNs + 2;

/// Stamps every boundary crossed since the last look with the value
/// captured AT that last look (gap events attribute to the newest
/// sub-window), then refreshes `last_seen` from the live metric.
template <typename Snap, typename TakeLive>
void advance_ring(detail_rolling::Ring<Snap>& r, std::uint64_t now_ns,
                  TakeLive take) {
  std::int64_t b = static_cast<std::int64_t>(now_ns / kSubWindowNs);
  if (b > r.last_b) {
    std::size_t cap = r.slots.size();
    // Under a long reader gap only the newest `cap` boundaries can still be
    // queried; skip stamping the ones already aged out of the ring.
    std::int64_t from = std::max(r.last_b + 1, b - static_cast<std::int64_t>(cap) + 1);
    for (std::int64_t k = from; k <= b; ++k) {
      std::size_t idx = static_cast<std::size_t>(k) % cap;
      r.slots[idx] = r.last_seen;
      r.slot_boundary[idx] = k;
    }
    r.last_b = b;
  }
  r.last_seen = take();
}

/// Picks the snapshot boundary for a `window_ns` query ending at `now_ns`
/// and returns {boundary, start_time_ns}.
template <typename Snap>
std::pair<std::int64_t, std::uint64_t> window_base(
    const detail_rolling::Ring<Snap>& r, std::uint64_t window_ns,
    std::uint64_t now_ns) {
  std::int64_t b = static_cast<std::int64_t>(now_ns / kSubWindowNs);
  std::int64_t s = b - static_cast<std::int64_t>(window_ns / kSubWindowNs);
  std::int64_t oldest = std::max(
      r.first_b, r.last_b - static_cast<std::int64_t>(r.slots.size()) + 1);
  s = std::clamp(s, oldest, r.last_b);
  std::uint64_t start_ns =
      s == r.first_b ? r.t0_ns : static_cast<std::uint64_t>(s) * kSubWindowNs;
  return {s, std::min(start_ns, now_ns)};
}

}  // namespace

RollingCounter::RollingCounter(const Counter& live, std::uint64_t now_ns)
    : live_(live) {
  ring_.slots.assign(kRingCapacity, 0);
  ring_.slot_boundary.assign(kRingCapacity, -1);
  ring_.t0_ns = now_ns;
  ring_.first_b = ring_.last_b =
      static_cast<std::int64_t>(now_ns / kSubWindowNs);
  ring_.last_seen = live_.value();
  std::size_t idx = static_cast<std::size_t>(ring_.first_b) % kRingCapacity;
  ring_.slots[idx] = ring_.last_seen;
  ring_.slot_boundary[idx] = ring_.first_b;
}

void RollingCounter::advance_locked(std::uint64_t now_ns) const {
  advance_ring(ring_, now_ns, [&] { return live_.value(); });
}

WindowStats RollingCounter::window(std::uint64_t window_ns,
                                   std::uint64_t now_ns) const {
  std::lock_guard<std::mutex> lk(m_);
  advance_locked(now_ns);
  auto [s, start_ns] = window_base(ring_, window_ns, now_ns);
  std::uint64_t base = ring_.slots[static_cast<std::size_t>(s) %
                                   ring_.slots.size()];
  std::uint64_t cur = ring_.last_seen;  // refreshed by advance_locked
  WindowStats w;
  w.count = cur >= base ? cur - base : 0;
  w.sum = static_cast<double>(w.count);
  w.window_s = static_cast<double>(now_ns - start_ns) / 1e9;
  if (w.window_s > 0) w.rate_per_s = static_cast<double>(w.count) / w.window_s;
  return w;
}

RollingHistogram::RollingHistogram(const Histogram& live, std::uint64_t now_ns)
    : live_(live) {
  ring_.slots.assign(kRingCapacity, Snap{});
  ring_.slot_boundary.assign(kRingCapacity, -1);
  ring_.t0_ns = now_ns;
  ring_.first_b = ring_.last_b =
      static_cast<std::int64_t>(now_ns / kSubWindowNs);
  advance_locked(now_ns);  // seeds last_seen from the live metric
  std::size_t idx = static_cast<std::size_t>(ring_.first_b) % kRingCapacity;
  ring_.slots[idx] = ring_.last_seen;
  ring_.slot_boundary[idx] = ring_.first_b;
}

void RollingHistogram::advance_locked(std::uint64_t now_ns) const {
  advance_ring(ring_, now_ns, [&] {
    Snap s;
    for (int i = 0; i < Histogram::kBuckets; ++i)
      s.buckets[i] = live_.bucket_count(i);
    s.count = live_.count();
    s.sum = live_.sum();
    return s;
  });
}

WindowStats RollingHistogram::window(std::uint64_t window_ns,
                                     std::uint64_t now_ns) const {
  std::lock_guard<std::mutex> lk(m_);
  advance_locked(now_ns);
  auto [s, start_ns] = window_base(ring_, window_ns, now_ns);
  const Snap& base =
      ring_.slots[static_cast<std::size_t>(s) % ring_.slots.size()];
  const Snap& cur = ring_.last_seen;
  std::uint64_t delta[Histogram::kBuckets];
  for (int i = 0; i < Histogram::kBuckets; ++i)
    delta[i] = cur.buckets[i] >= base.buckets[i]
                   ? cur.buckets[i] - base.buckets[i]
                   : 0;
  WindowStats w;
  w.count = cur.count >= base.count ? cur.count - base.count : 0;
  w.sum = cur.sum - base.sum;
  w.mean = w.count ? w.sum / static_cast<double>(w.count) : 0.0;
  w.p50 = Histogram::percentile_of(delta, 0.50);
  w.p95 = Histogram::percentile_of(delta, 0.95);
  w.p99 = Histogram::percentile_of(delta, 0.99);
  w.window_s = static_cast<double>(now_ns - start_ns) / 1e9;
  if (w.window_s > 0) w.rate_per_s = static_cast<double>(w.count) / w.window_s;
  return w;
}

void RollingCollector::track_counter(const std::string& name,
                                     const Counter& live) {
  std::lock_guard<std::mutex> lk(m_);
  for (auto& kv : counters_)
    if (kv.first == name) return;
  auto view = std::make_unique<RollingCounter>(live, detail::now_ns());
  auto pos = std::lower_bound(
      counters_.begin(), counters_.end(), name,
      [](const auto& kv, const std::string& n) { return kv.first < n; });
  counters_.emplace(pos, name, std::move(view));
}

void RollingCollector::track_histogram(const std::string& name,
                                       const Histogram& live) {
  std::lock_guard<std::mutex> lk(m_);
  for (auto& kv : hists_)
    if (kv.first == name) return;
  auto view = std::make_unique<RollingHistogram>(live, detail::now_ns());
  auto pos = std::lower_bound(
      hists_.begin(), hists_.end(), name,
      [](const auto& kv, const std::string& n) { return kv.first < n; });
  hists_.emplace(pos, name, std::move(view));
}

WindowStats RollingCollector::counter_window(const std::string& name,
                                             std::uint64_t window_ns,
                                             std::uint64_t now_ns) const {
  const RollingCounter* view = nullptr;
  {
    std::lock_guard<std::mutex> lk(m_);
    for (const auto& kv : counters_)
      if (kv.first == name) view = kv.second.get();
  }
  return view ? view->window(window_ns, now_ns) : WindowStats{};
}

Json RollingCollector::snapshot_json(std::uint64_t now_ns) const {
  // Copy the view pointers out so rendering doesn't hold the map mutex
  // (views have their own locks).
  std::vector<std::pair<std::string, const RollingCounter*>> ctrs;
  std::vector<std::pair<std::string, const RollingHistogram*>> hists;
  {
    std::lock_guard<std::mutex> lk(m_);
    for (const auto& kv : counters_) ctrs.emplace_back(kv.first, kv.second.get());
    for (const auto& kv : hists_) hists.emplace_back(kv.first, kv.second.get());
  }
  Json out = Json::object();
  out.set("sub_window_s", Json(static_cast<double>(kSubWindowNs) / 1e9));
  const struct {
    const char* key;
    std::uint64_t ns;
  } kWindows[] = {{"short", kShortWindowNs}, {"long", kLongWindowNs}};
  for (const auto& win : kWindows) {
    Json wobj = Json::object();
    wobj.set("window_s", Json(static_cast<double>(win.ns) / 1e9));
    double covered = 0.0;
    Json counters = Json::object();
    for (const auto& kv : ctrs) {
      WindowStats w = kv.second->window(win.ns, now_ns);
      covered = std::max(covered, w.window_s);
      Json o = Json::object();
      o.set("count", Json(w.count));
      o.set("rate_per_s", Json(w.rate_per_s));
      counters.set(kv.first, std::move(o));
    }
    Json hobj = Json::object();
    for (const auto& kv : hists) {
      WindowStats w = kv.second->window(win.ns, now_ns);
      covered = std::max(covered, w.window_s);
      Json o = Json::object();
      o.set("count", Json(w.count));
      o.set("rate_per_s", Json(w.rate_per_s));
      o.set("mean", Json(w.mean));
      o.set("p50", Json(w.p50));
      o.set("p95", Json(w.p95));
      o.set("p99", Json(w.p99));
      hobj.set(kv.first, std::move(o));
    }
    wobj.set("covered_s", Json(covered));
    wobj.set("counters", std::move(counters));
    wobj.set("histograms", std::move(hobj));
    out.set(win.key, std::move(wobj));
  }
  return out;
}

}  // namespace pp::obs
