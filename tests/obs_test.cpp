// Tests for the observability layer: JSON round-trips, logger filtering,
// histogram percentiles, span recording (nesting, multi-thread merge,
// disabled no-op) and the chrome-trace export.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/env.hpp"
#include "obs/expo.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/rolling.hpp"
#include "obs/trace.hpp"

namespace pp::obs {
namespace {

// --- JSON -------------------------------------------------------------------

TEST(Json, DumpParseRoundTrip) {
  Json o = Json::object();
  o.set("b", Json(true));
  o.set("n", Json(3.5));
  o.set("s", Json("he\"llo\nworld"));
  Json arr = Json::array();
  arr.push_back(Json(1));
  arr.push_back(Json(nullptr));
  arr.push_back(Json::object());
  o.set("a", std::move(arr));

  for (int indent : {-1, 2}) {
    std::string err;
    Json back = Json::parse(o.dump(indent), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_TRUE(back.find("b")->as_bool());
    EXPECT_DOUBLE_EQ(back.find("n")->as_number(), 3.5);
    EXPECT_EQ(back.find("s")->as_string(), "he\"llo\nworld");
    ASSERT_EQ(back.find("a")->size(), 3u);
    EXPECT_DOUBLE_EQ(back.find("a")->at(0).as_number(), 1.0);
    EXPECT_TRUE(back.find("a")->at(1).is_null());
    EXPECT_TRUE(back.find("a")->at(2).is_object());
  }
}

TEST(Json, PreservesInsertionOrder) {
  Json o = Json::object();
  o.set("zebra", Json(1));
  o.set("alpha", Json(2));
  EXPECT_EQ(o.dump(), "{\"zebra\":1,\"alpha\":2}");
}

TEST(Json, SetReplacesInPlace) {
  Json o = Json::object();
  o.set("k", Json(1));
  o.set("k", Json(2));
  EXPECT_EQ(o.size(), 1u);
  EXPECT_DOUBLE_EQ(o.find("k")->as_number(), 2.0);
}

TEST(Json, ParseUnicodeEscape) {
  std::string err;
  Json v = Json::parse("\"A\\u00e9B\"", &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(v.as_string(), "A\xc3\xa9"
                           "B");
}

TEST(Json, ParseRejectsTrailingGarbage) {
  std::string err;
  Json v = Json::parse("{\"a\": 1} extra", &err);
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(err.empty());
}

TEST(Json, ParseRejectsMalformed) {
  for (const char* bad : {"{", "[1,", "\"unterminated", "tru", "{'a':1}",
                          "[1 2]", ""}) {
    std::string err;
    Json v = Json::parse(bad, &err);
    EXPECT_TRUE(v.is_null()) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

// --- Logger -----------------------------------------------------------------

std::mutex g_log_mutex;
std::vector<std::pair<LogLevel, std::string>> g_log_lines;

void capture_sink(LogLevel level, const std::string& message) {
  std::lock_guard<std::mutex> lk(g_log_mutex);
  g_log_lines.emplace_back(level, message);
}

class LogCapture : public ::testing::Test {
 protected:
  void SetUp() override {
    g_log_lines.clear();
    set_log_sink(&capture_sink);
  }
  void TearDown() override {
    set_log_sink(nullptr);
    set_log_level(LogLevel::Warn);
  }
};

TEST_F(LogCapture, FiltersBelowThreshold) {
  set_log_level(LogLevel::Warn);
  PP_LOG(Debug) << "hidden";
  PP_LOG(Info) << "hidden too";
  PP_LOG(Warn) << "shown " << 42;
  PP_LOG(Error) << "also shown";
  ASSERT_EQ(g_log_lines.size(), 2u);
  EXPECT_EQ(g_log_lines[0].first, LogLevel::Warn);
  EXPECT_EQ(g_log_lines[0].second, "shown 42");
  EXPECT_EQ(g_log_lines[1].first, LogLevel::Error);
}

TEST_F(LogCapture, DisabledLineDoesNotEvaluateStream) {
  set_log_level(LogLevel::Error);
  int evaluations = 0;
  auto probe = [&] {
    ++evaluations;
    return 1;
  };
  PP_LOG(Info) << probe();
  EXPECT_EQ(evaluations, 0);
  PP_LOG(Error) << probe();
  EXPECT_EQ(evaluations, 1);
}

TEST_F(LogCapture, DebugLinesCarryLocation) {
  set_log_level(LogLevel::Trace);
  PP_LOG(Debug) << "with location";
  ASSERT_EQ(g_log_lines.size(), 1u);
  EXPECT_NE(g_log_lines[0].second.find("obs_test.cpp"), std::string::npos);
}

TEST(LogLevelNames, ParseRoundTrip) {
  for (LogLevel l : {LogLevel::Trace, LogLevel::Debug, LogLevel::Info,
                     LogLevel::Warn, LogLevel::Error, LogLevel::Off})
    EXPECT_EQ(parse_log_level(log_level_name(l), LogLevel::Off), l);
  EXPECT_EQ(parse_log_level("WARN", LogLevel::Off), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("bogus", LogLevel::Info), LogLevel::Info);
}

// --- Metrics ----------------------------------------------------------------

TEST(Metrics, RegistryInternsByName) {
  Counter& a = metrics().counter("obs_test.interned");
  Counter& b = metrics().counter("obs_test.interned");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  a.reset();
}

TEST(Metrics, HistogramExactCountAndSum) {
  Histogram h;
  double sum = 0;
  for (int i = 1; i <= 100; ++i) {
    h.observe(i);
    sum += i;
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), sum);
  EXPECT_DOUBLE_EQ(h.mean(), sum / 100);
}

TEST(Metrics, HistogramPercentileWithinBucketRatio) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.observe(i);
  // Log-bucketed: the estimate is exact to within one bucket ratio (1.5x).
  double p50 = h.percentile(0.5);
  EXPECT_GT(p50, 500.0 / 1.5);
  EXPECT_LT(p50, 500.0 * 1.5);
  double p95 = h.percentile(0.95);
  EXPECT_GT(p95, 950.0 / 1.5);
  EXPECT_LT(p95, 950.0 * 1.5);
  EXPECT_LE(p50, p95);
}

TEST(Metrics, HistogramEdgeCases) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);  // empty
  h.observe(-5);                             // non-positive -> bucket 0
  h.observe(0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_LE(h.percentile(1.0), Histogram::bucket_bound(0));
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(Metrics, BucketBoundsGrowGeometrically) {
  for (int i = 1; i < Histogram::kBuckets; ++i)
    EXPECT_GT(Histogram::bucket_bound(i), Histogram::bucket_bound(i - 1));
}

TEST(Metrics, HistogramMinMaxExact) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.min(), 0.0);  // empty: no observation yet
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  h.observe(7.5);
  EXPECT_DOUBLE_EQ(h.min(), 7.5);
  EXPECT_DOUBLE_EQ(h.max(), 7.5);
  h.observe(0.25);
  h.observe(300.0);
  // Extremes are exact, not bucketized.
  EXPECT_DOUBLE_EQ(h.min(), 0.25);
  EXPECT_DOUBLE_EQ(h.max(), 300.0);
  h.reset();
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  // A legitimate 0.0 minimum survives (the empty sentinel is +inf, not 0).
  h.observe(0.0);
  h.observe(5.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
}

TEST(Metrics, HistogramMinMaxConcurrentWriters) {
  Histogram h;
  constexpr int kThreads = 4, kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i)
        h.observe(1.0 + t * kPerThread + i);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), kThreads * kPerThread);
}

TEST(Metrics, HistogramP99AndJsonFields) {
  Histogram& h = metrics().histogram("obs_test.hist_p99");
  for (int i = 1; i <= 1000; ++i) h.observe(i);
  double p99 = h.percentile(0.99);
  EXPECT_GT(p99, 990.0 / 1.5);
  EXPECT_LT(p99, 990.0 * 1.5);
  EXPECT_LE(h.percentile(0.95), p99 * 1.0001);

  Json doc = metrics().to_json();
  const Json* hj = doc.find("histograms")->find("obs_test.hist_p99");
  ASSERT_NE(hj, nullptr);
  for (const char* key :
       {"count", "sum", "mean", "p50", "p95", "p99", "min", "max"})
    EXPECT_TRUE(hj->has(key)) << key;
  EXPECT_DOUBLE_EQ(hj->find("min")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(hj->find("max")->as_number(), 1000.0);
  h.reset();
}

TEST(Metrics, PercentileOfMatchesPercentile) {
  Histogram h;
  for (int i = 1; i <= 500; ++i) h.observe(i * 0.5);
  std::uint64_t counts[Histogram::kBuckets];
  for (int i = 0; i < Histogram::kBuckets; ++i) counts[i] = h.bucket_count(i);
  for (double q : {0.5, 0.95, 0.99})
    EXPECT_DOUBLE_EQ(Histogram::percentile_of(counts, q), h.percentile(q));
  std::uint64_t empty[Histogram::kBuckets] = {};
  EXPECT_DOUBLE_EQ(Histogram::percentile_of(empty, 0.5), 0.0);
}

// --- Rolling windows --------------------------------------------------------

TEST(Rolling, CounterWindowAndRollover) {
  // 1 s sub-windows, 10 s short, 60 s long.
  Counter live;
  const std::uint64_t t0 = 1'000'000'000ull * 1000;  // arbitrary epoch
  RollingCounter view(live, t0);

  live.add(5);
  WindowStats w = view.window(kShortWindowNs, t0 + 500'000'000ull);
  EXPECT_EQ(w.count, 5u);
  EXPECT_GT(w.rate_per_s, 0.0);

  // 3 s later another 10 events land; the 10 s window sees all 15.
  live.add(10);
  w = view.window(kShortWindowNs, t0 + 3'500'000'000ull);
  EXPECT_EQ(w.count, 15u);
  EXPECT_NEAR(w.window_s, 3.5, 0.01);

  // 30 s later the 10 s window has rolled past everything...
  w = view.window(kShortWindowNs, t0 + 33'000'000'000ull);
  EXPECT_EQ(w.count, 0u);
  // ...but the 60 s window still covers the metric's whole life.
  w = view.window(kLongWindowNs, t0 + 33'000'000'000ull);
  EXPECT_EQ(w.count, 15u);
}

TEST(Rolling, ReaderGapAgesEventsSlowerNeverFaster) {
  Counter live;
  const std::uint64_t t0 = 1'000'000'000ull * 2000;
  RollingCounter view(live, t0);

  // Events land right away, but NO reader looks for 8 s. The boundaries
  // crossed during the gap are stamped with the value at the previous look
  // (0 events), so the gap's events attribute to the newest sub-window and
  // are still fully visible in the short window.
  live.add(20);
  WindowStats w = view.window(kShortWindowNs, t0 + 8'000'000'000ull);
  EXPECT_EQ(w.count, 20u);

  // 5 s later (13 s after the events actually happened) they are STILL in
  // the 10 s window — aged slower, never dropped early.
  w = view.window(kShortWindowNs, t0 + 13'000'000'000ull);
  EXPECT_EQ(w.count, 20u);

  // Once the window rolls past the sub-window they were stamped into, they
  // finally age out.
  w = view.window(kShortWindowNs, t0 + 20'000'000'000ull);
  EXPECT_EQ(w.count, 0u);
}

TEST(Rolling, HistogramWindowPercentiles) {
  Histogram live;
  const std::uint64_t t0 = 1'000'000'000ull * 3000;
  RollingHistogram view(live, t0);

  // First second: slow requests. Stamp the boundary by querying.
  for (int i = 0; i < 100; ++i) live.observe(100.0);
  (void)view.window(kShortWindowNs, t0 + 1'500'000'000ull);

  // 12 s later: only fast requests in the short window; the old slow batch
  // has aged out, so the windowed p95 reflects ONLY the recent regime.
  for (int i = 0; i < 100; ++i) live.observe(1.0);
  WindowStats w =
      view.window(kShortWindowNs, t0 + 13'000'000'000ull);
  EXPECT_EQ(w.count, 100u);
  EXPECT_LT(w.p95, 100.0 / 1.5);  // slow batch invisible
  EXPECT_GT(w.p50, 1.0 / 1.5);
  EXPECT_LT(w.p50, 1.0 * 1.5);
  EXPECT_NEAR(w.mean, 1.0, 0.5);

  // The lifetime histogram still sees both regimes.
  EXPECT_EQ(live.count(), 200u);
}

TEST(Rolling, ConcurrentWritersDuringScrapes) {
  Histogram live;
  const std::uint64_t t0 = 1'000'000'000ull * 4000;
  RollingHistogram view(live, t0);

  constexpr int kWriters = 4, kPerWriter = 5000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    // Scrapes hammer the same simulated instant so the ring never rolls
    // past the final assertion's window; the point is reads racing writes.
    while (!stop.load()) {
      WindowStats w = view.window(kLongWindowNs, t0 + 5'000'000'000ull);
      EXPECT_LE(w.count, static_cast<std::uint64_t>(kWriters * kPerWriter));
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t)
    writers.emplace_back([&live] {
      for (int i = 0; i < kPerWriter; ++i) live.observe(i % 50 + 1.0);
    });
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();

  // Final scrape (simulated well within the long window) sees everything.
  WindowStats w = view.window(kLongWindowNs, t0 + 30'000'000'000ull);
  EXPECT_EQ(w.count, static_cast<std::uint64_t>(kWriters * kPerWriter));
  EXPECT_GT(w.p50, 0.0);
}

TEST(Rolling, CollectorSnapshotJsonShape) {
  Counter counter, other;
  Histogram hist;
  RollingCollector collector;
  collector.track_counter("obs_test.roll_counter", counter);
  collector.track_histogram("obs_test.roll_hist", hist);
  collector.track_counter("obs_test.roll_counter", other);  // keeps the first

  counter.add(3);
  hist.observe(2.0);

  Json snap = collector.snapshot_json(detail::now_ns());
  EXPECT_TRUE(snap.find("sub_window_s")->is_number());
  for (const char* win : {"short", "long"}) {
    const Json* w = snap.find(win);
    ASSERT_NE(w, nullptr) << win;
    EXPECT_TRUE(w->find("window_s")->is_number());
    EXPECT_TRUE(w->find("covered_s")->is_number());
    const Json* c = w->find("counters")->find("obs_test.roll_counter");
    ASSERT_NE(c, nullptr);
    EXPECT_DOUBLE_EQ(c->find("count")->as_number(), 3.0);
    const Json* h = w->find("histograms")->find("obs_test.roll_hist");
    ASSERT_NE(h, nullptr);
    for (const char* key :
         {"count", "rate_per_s", "mean", "p50", "p95", "p99"})
      EXPECT_TRUE(h->has(key)) << key;
  }
  // Round-trips through dump/parse.
  std::string err;
  Json back = Json::parse(snap.dump(), &err);
  EXPECT_TRUE(err.empty()) << err;
}

// --- Exposition -------------------------------------------------------------

TEST(Expo, MetricsSnapshotJsonShape) {
  Json snap = metrics_snapshot_json();
  EXPECT_EQ(snap.find("snapshot")->as_string(), "pp.metrics.v1");
  EXPECT_GE(snap.find("uptime_ms")->as_number(), 0.0);
  ASSERT_TRUE(snap.find("metrics")->is_object());
  const Json* trace = snap.find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_TRUE(trace->find("events")->is_number());
  EXPECT_TRUE(trace->find("dropped_spans")->is_number());
}

// --- Tracing ----------------------------------------------------------------

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_trace_enabled(true);
    reset_trace();
  }
  void TearDown() override {
    set_trace_enabled(false);
    reset_trace();
  }
};

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  set_trace_enabled(false);
  {
    PP_TRACE_SPAN("obs_test.disabled");
  }
  EXPECT_EQ(trace_event_count(), 0u);
  EXPECT_TRUE(span_summary().empty());
}

TEST_F(TraceTest, RecordsNestedSpansWithDepth) {
  {
    PP_TRACE_SPAN("obs_test.outer");
    PP_TRACE_SPAN("obs_test.inner");
  }
  std::vector<TraceEventView> events = trace_events();
  ASSERT_EQ(events.size(), 2u);
  const TraceEventView* outer = nullptr;
  const TraceEventView* inner = nullptr;
  for (const auto& e : events) {
    if (e.name == "obs_test.outer") outer = &e;
    if (e.name == "obs_test.inner") inner = &e;
  }
  ASSERT_TRUE(outer && inner);
  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(inner->depth, 1);
  // The inner span nests inside the outer one on the timeline.
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_LE(inner->start_ns + inner->dur_ns, outer->start_ns + outer->dur_ns);
}

TEST_F(TraceTest, MergesEventsAcrossThreads) {
  constexpr int kThreads = 3;
  constexpr int kSpansPerThread = 10;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        PP_TRACE_SPAN("obs_test.worker");
      }
    });
  for (auto& t : threads) t.join();

  std::vector<std::uint32_t> tids;
  std::size_t total = 0;
  for (const auto& e : trace_events()) {
    if (e.name != std::string("obs_test.worker")) continue;
    ++total;
    if (std::find(tids.begin(), tids.end(), e.tid) == tids.end())
      tids.push_back(e.tid);
  }
  EXPECT_EQ(total, static_cast<std::size_t>(kThreads * kSpansPerThread));
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));

  for (const SpanStat& s : span_summary()) {
    if (s.name != "obs_test.worker") continue;
    EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads * kSpansPerThread));
    EXPECT_GE(s.p95_ms, s.p50_ms);
    EXPECT_GT(s.total_ms, 0.0);
  }
}

TEST_F(TraceTest, SummaryAggregatesPerName) {
  for (int i = 0; i < 5; ++i) {
    PP_TRACE_SPAN("obs_test.a");
  }
  {
    PP_TRACE_SPAN("obs_test.b");
  }
  bool saw_a = false, saw_b = false;
  for (const SpanStat& s : span_summary()) {
    if (s.name == "obs_test.a") {
      saw_a = true;
      EXPECT_EQ(s.count, 5u);
    }
    if (s.name == "obs_test.b") {
      saw_b = true;
      EXPECT_EQ(s.count, 1u);
    }
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
}

TEST_F(TraceTest, ChromeTraceJsonIsValid) {
  {
    PP_TRACE_SPAN("obs_test.chrome");
  }
  Json doc = chrome_trace_json();
  std::string err;
  Json back = Json::parse(doc.dump(), &err);
  ASSERT_TRUE(err.empty()) << err;
  const Json* events = back.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GE(events->size(), 1u);
  const Json& e = events->at(0);
  EXPECT_TRUE(e.find("name")->is_string());
  EXPECT_EQ(e.find("ph")->as_string(), "X");
  EXPECT_TRUE(e.find("ts")->is_number());
  EXPECT_TRUE(e.find("dur")->is_number());
}

TEST_F(TraceTest, ChromeTraceWrittenAtomically) {
  {
    PP_TRACE_SPAN("obs_test.chrome_file");
  }
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "pp_obs_test_trace";
  fs::create_directories(dir);
  const std::string path = (dir / "trace.json").string();
  ASSERT_TRUE(write_chrome_trace(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::string err;
  Json back = Json::parse(text.str(), &err);
  ASSERT_TRUE(err.empty()) << err;
  ASSERT_NE(back.find("traceEvents"), nullptr);
  EXPECT_GE(back.find("traceEvents")->size(), 1u);

  // An unwritable path fails and leaves no file behind.
  const std::string missing = (dir / "no_such_dir" / "trace.json").string();
  EXPECT_FALSE(write_chrome_trace(missing));
  EXPECT_FALSE(fs::exists(missing));
  fs::remove_all(dir);
}

TEST(TraceBuf, ParseIsStrictAndBounded) {
  // PP_TRACE_BUF's bounds through the shared strict parser; 0 = rejected.
  auto parse_trace_buf = [](const char* s) {
    return parse_bounded(s, kMinTraceBufEvents, kMaxTraceBufEvents)
        .value_or(0);
  };
  EXPECT_EQ(parse_trace_buf("64"), 64u);
  EXPECT_EQ(parse_trace_buf("65536"), 65536u);
  EXPECT_EQ(parse_trace_buf("1048576"), 1048576u);  // what ppbench sets
  EXPECT_EQ(parse_trace_buf("16777216"), kMaxTraceBufEvents);
  EXPECT_EQ(parse_trace_buf("16777217"), 0u);
  EXPECT_EQ(parse_trace_buf("99999999999999999999999"), 0u);  // overflows
  EXPECT_EQ(parse_trace_buf("63"), 0u);
  EXPECT_EQ(parse_trace_buf("0"), 0u);
  EXPECT_EQ(parse_trace_buf("-64"), 0u);
  EXPECT_EQ(parse_trace_buf("4096abc"), 0u);
  EXPECT_EQ(parse_trace_buf(" 4096"), 0u);
  EXPECT_EQ(parse_trace_buf("+4096"), 0u);
  EXPECT_EQ(parse_trace_buf(""), 0u);
}

// Every numeric knob takes a whole decimal number inside its bounds and
// nothing else, never a numeric prefix.
TEST(EnvKnobs, ParseIsStrictAndBounded) {
  for (const char* bad :
       {"10MB", "1e7", "4abc", "0.5", "", "-1", "+8", " 8", "8 ",
        "99999999999999999999999"}) {
    EXPECT_FALSE(parse_bounded(bad, 1, std::uint64_t{1} << 40))
        << "'" << bad << "'";
  }
  EXPECT_EQ(parse_bounded("1099511627776", 1, std::uint64_t{1} << 40),
            std::uint64_t{1} << 40);
}

TEST_F(TraceTest, CorrSpansAndFlowPointsPropagate) {
  const std::uint64_t corr = 42;
  std::uint64_t start = trace_now_ns();
  record_flow_point("serve.step", corr);
  record_flow_point("serve.step", corr);
  record_span_with_corr("serve.request", start, trace_now_ns(), corr);
  {
    PP_TRACE_SPAN("obs_test.plain");
  }

  int flow_points = 0, corr_spans = 0;
  for (const TraceEventView& e : trace_events()) {
    if (e.flow_point) {
      ++flow_points;
      EXPECT_EQ(e.corr, corr);
      EXPECT_EQ(e.name, std::string("serve.step"));
    } else if (e.corr == corr) {
      ++corr_spans;
      EXPECT_EQ(e.name, std::string("serve.request"));
    }
  }
  EXPECT_EQ(flow_points, 2);
  EXPECT_EQ(corr_spans, 1);

  // Flow points are instants, not spans: they stay out of the summary.
  for (const SpanStat& s : span_summary())
    EXPECT_NE(s.name, "serve.step");
  bool saw_request = false;
  for (const SpanStat& s : span_summary())
    saw_request = saw_request || s.name == "serve.request";
  EXPECT_TRUE(saw_request);
}

TEST_F(TraceTest, ChromeExportEmitsFlowChains) {
  const std::uint64_t corr = 7;
  std::uint64_t start = trace_now_ns();
  record_flow_point("serve.step", corr);
  record_flow_point("serve.step", corr);
  record_span_with_corr("serve.request", start, trace_now_ns(), corr);

  Json doc = chrome_trace_json();
  std::string err;
  Json back = Json::parse(doc.dump(), &err);
  ASSERT_TRUE(err.empty()) << err;
  const Json* events = back.find("traceEvents");
  ASSERT_NE(events, nullptr);

  // Duration slices come first (viewers expect them), flow events after.
  EXPECT_EQ(events->at(0).find("ph")->as_string(), "X");
  int starts = 0, steps = 0, finishes = 0;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const Json& e = events->at(i);
    const std::string ph = e.find("ph")->as_string();
    if (ph != "s" && ph != "t" && ph != "f") continue;
    EXPECT_EQ(e.find("name")->as_string(), "serve.flow");
    EXPECT_DOUBLE_EQ(e.find("id")->as_number(), 7.0);
    if (ph == "s") ++starts;
    if (ph == "t") ++steps;
    if (ph == "f") {
      ++finishes;
      EXPECT_EQ(e.find("bp")->as_string(), "e");
    }
  }
  // 3 correlated events -> one chain: s, t, f.
  EXPECT_EQ(starts, 1);
  EXPECT_EQ(steps, 1);
  EXPECT_EQ(finishes, 1);
}

TEST_F(TraceTest, DisabledCorrHelpersAreNoOps) {
  set_trace_enabled(false);
  record_flow_point("serve.step", 1);
  record_span_with_corr("serve.request", 0, 10, 1);
  EXPECT_EQ(trace_event_count(), 0u);
}

TEST_F(TraceTest, ResetClearsEvents) {
  {
    PP_TRACE_SPAN("obs_test.reset");
  }
  EXPECT_GT(trace_event_count(), 0u);
  reset_trace();
  EXPECT_EQ(trace_event_count(), 0u);
  EXPECT_EQ(trace_dropped(), 0u);
}

}  // namespace
}  // namespace pp::obs
