// Rolling-window views over the live metrics primitives.
//
// The cumulative Counter/Histogram in metrics.hpp answer "since process
// start"; a long-lived server needs "over the last ~10s/60s". This layer
// adds that WITHOUT touching writers: a RollingCounter/RollingHistogram
// holds a reference to the live metric plus a ring of cumulative snapshots
// taken lazily at fixed 1 s sub-window boundaries. Windowed stats are
// simply (live now) - (snapshot at now - window), so the hot path stays
// exactly what it was — one relaxed atomic add per event.
//
// Snapshotting is reader-driven: advance() runs under a reader-side mutex
// on every query. If no reader looks for a while, missed boundaries are
// stamped with the value captured at the previous look, which attributes
// the gap's events to the newest sub-window — events age *slower* under
// reader gaps, never faster, so a late scrape still sees them. Window
// edges are quantized to one sub-window; percentiles inherit the
// one-bucket-ratio (~1.5x) accuracy of the underlying log-bucketed
// histogram.
//
// RollingCollector bundles the rolling views over the metrics one server
// owns and renders a JSON snapshot with both a short (10 s) and a long
// (60 s) window.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace pp::obs {

class Json;

/// Stats for one metric over one window. `window_s` is the actual span
/// covered (shorter than requested early in the metric's life).
struct WindowStats {
  std::uint64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double p50 = 0.0;  // histograms only; 0 for counters
  double p95 = 0.0;
  double p99 = 0.0;
  double rate_per_s = 0.0;
  double window_s = 0.0;
};

/// Window sizing shared by every rolling view.
inline constexpr std::uint64_t kSubWindowNs = 1'000'000'000ull;     // 1 s
inline constexpr std::uint64_t kShortWindowNs = 10'000'000'000ull;  // 10 s
inline constexpr std::uint64_t kLongWindowNs = 60'000'000'000ull;   // 60 s

namespace detail_rolling {

/// Ring-of-snapshots bookkeeping shared by counter and histogram views.
/// `Snap` is the cumulative snapshot payload.
template <typename Snap>
struct Ring {
  std::vector<Snap> slots;
  std::vector<std::int64_t> slot_boundary;  // boundary id held, -1 = empty
  std::int64_t first_b = 0;   // construction boundary (baseline)
  std::int64_t last_b = 0;    // newest stamped boundary
  std::uint64_t t0_ns = 0;    // exact construction time
  Snap last_seen{};           // live value captured at the previous look
};

}  // namespace detail_rolling

/// Rolling view over a live Counter. Thread-safe; all methods may be
/// called concurrently with writers.
class RollingCounter {
 public:
  RollingCounter(const Counter& live, std::uint64_t now_ns);

  /// Events and rate over the trailing `window_ns` (quantized to one
  /// sub-window; clipped to the metric's observed life).
  WindowStats window(std::uint64_t window_ns, std::uint64_t now_ns) const;

 private:
  const Counter& live_;
  mutable std::mutex m_;
  mutable detail_rolling::Ring<std::uint64_t> ring_;

  void advance_locked(std::uint64_t now_ns) const;
};

/// Rolling view over a live Histogram: windowed count/rate plus p50/p95/p99
/// computed from bucket-count deltas between two snapshots.
class RollingHistogram {
 public:
  struct Snap {
    std::uint64_t buckets[Histogram::kBuckets] = {};
    std::uint64_t count = 0;
    double sum = 0.0;
  };

  RollingHistogram(const Histogram& live, std::uint64_t now_ns);

  WindowStats window(std::uint64_t window_ns, std::uint64_t now_ns) const;

 private:
  const Histogram& live_;
  mutable std::mutex m_;
  mutable detail_rolling::Ring<Snap> ring_;

  void advance_locked(std::uint64_t now_ns) const;
};

/// A named bundle of rolling views over metrics its owner holds (one per
/// server instance, over that server's own counts), so each view sees one
/// owner's events and baselines at its own construction.
class RollingCollector {
 public:
  /// Tracks `live` (which must outlive the collector) under `name`. A
  /// name already tracked keeps its first view.
  void track_counter(const std::string& name, const Counter& live);
  void track_histogram(const std::string& name, const Histogram& live);

  /// Stats for one tracked counter; zeroed WindowStats when untracked.
  WindowStats counter_window(const std::string& name, std::uint64_t window_ns,
                             std::uint64_t now_ns) const;

  /// {"window_s": {"short": s, "long": s}, "short": {counters: {name:
  /// {count,rate_per_s}}, histograms: {name: {count,rate_per_s,mean,p50,
  /// p95,p99}}}, "long": {...}} — names sorted, windows quantized.
  Json snapshot_json(std::uint64_t now_ns) const;

 private:
  mutable std::mutex m_;  // guards the maps, not the per-view state
  std::vector<std::pair<std::string, std::unique_ptr<RollingCounter>>>
      counters_;
  std::vector<std::pair<std::string, std::unique_ptr<RollingHistogram>>>
      hists_;
};

}  // namespace pp::obs
