// Process-wide counters, gauges and latency histograms.
//
// Metrics are cheap enough to stay on unconditionally: a counter bump is
// one relaxed atomic add, a histogram observation is two. Call sites cache
// the registry lookup in a function-local static:
//
//   static Counter& checks = metrics().counter("drc.checks");
//   checks.add(1);
//
// Histograms are log-bucketed (64 geometric buckets spanning 1 ns .. ~100 s
// when fed nanoseconds, or any other positive unit): percentile queries
// return the geometric midpoint of the bucket where the rank falls, i.e.
// they are exact to within one bucket ratio (~1.5x). Counts and sums are
// exact.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace pp::obs {

class Json;

class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

class Histogram {
 public:
  static constexpr int kBuckets = 64;

  /// Records one observation; non-positive values land in bucket 0.
  void observe(double v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    std::uint64_t n = count();
    return n ? sum() / static_cast<double>(n) : 0.0;
  }
  /// Exact smallest / largest observed value; 0 when empty.
  double min() const;
  double max() const;

  /// Percentile estimate, q in [0, 1]; 0 when empty. Within one bucket
  /// ratio of the true value.
  double percentile(double q) const;

  /// Relaxed read of one bucket's count (rolling-window snapshots).
  std::uint64_t bucket_count(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Percentile over an externally supplied bucket-count array (the rolling
  /// layer feeds bucket DELTAS between two snapshots through this so
  /// windowed and lifetime percentiles share one estimator).
  static double percentile_of(const std::uint64_t counts[kBuckets], double q);

  /// Upper bound of bucket i (exposed for tests).
  static double bucket_bound(int i);
  /// Geometric growth factor between adjacent bucket bounds (the "one
  /// bucket ratio" that bounds percentile error).
  static double bucket_ratio();

  void reset();

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // +/-inf sentinels mean "no observation yet"; min()/max() report 0 then.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Named-metric registry. Lookup interns by name: the first caller creates
/// the metric, later callers (any thread) get the same instance. Metric
/// references stay valid for the life of the process.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Zeroes every registered metric (names stay registered).
  void reset();

  /// {"counters": {...}, "gauges": {...}, "histograms": {name:
  /// {count,sum,mean,p50,p95,p99,min,max}}}, names sorted.
  Json to_json() const;

 private:
  struct Impl;
  Impl& impl() const;
};

/// The process-wide registry.
MetricsRegistry& metrics();

}  // namespace pp::obs
