#include "obs/report.hpp"

#include <filesystem>
#include <fstream>
#include <mutex>
#include <system_error>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pp::obs {

namespace {

struct Sections {
  std::mutex m;
  std::vector<std::pair<std::string, std::function<Json()>>> entries;
};

Sections& sections() {
  static Sections* s = new Sections;
  return *s;
}

}  // namespace

void register_report_section(const std::string& key,
                             std::function<Json()> fn) {
  Sections& s = sections();
  std::lock_guard<std::mutex> lk(s.m);
  for (auto& kv : s.entries) {
    if (kv.first == key) {
      kv.second = std::move(fn);
      return;
    }
  }
  s.entries.emplace_back(key, std::move(fn));
}

Json build_run_report(const std::string& tool) {
  Json report = Json::object();
  report.set("schema_version", Json(1));
  report.set("tool", Json(tool));
  report.set("wall_ms", Json(static_cast<double>(detail::now_ns()) / 1e6));
  report.set("metrics", metrics().to_json());
  report.set("spans", span_summary_json());
  Json trace = Json::object();
  trace.set("enabled", Json(trace_enabled()));
  trace.set("events", Json(trace_event_count()));
  trace.set("dropped", Json(trace_dropped()));
  // Canonical name for buffer-overflow loss ("dropped" kept for older
  // scrapers): non-zero means PP_TRACE_BUF was too small and the exported
  // trace is truncated.
  trace.set("dropped_spans", Json(trace_dropped()));
  report.set("trace", std::move(trace));

  // Copy the callbacks out so a section building a report (it shouldn't,
  // but) can't deadlock on the registry mutex.
  std::vector<std::pair<std::string, std::function<Json()>>> entries;
  {
    Sections& s = sections();
    std::lock_guard<std::mutex> lk(s.m);
    entries = s.entries;
  }
  for (const auto& kv : entries) report.set(kv.first, kv.second());
  return report;
}

bool write_text_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.good()) return false;
    out << content;
    out.flush();
    if (!out.good()) {
      out.close();
      std::error_code ignored;
      std::filesystem::remove(tmp, ignored);
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    return false;
  }
  return true;
}

bool write_run_report(const std::string& path, const std::string& tool) {
  return write_text_atomic(path, build_run_report(tool).dump(2) + "\n");
}

namespace {

bool fail(std::string* err, const std::string& msg) {
  if (err) *err = msg;
  return false;
}

bool check_number_fields(const Json& obj, const char* const* fields,
                         std::size_t n, const std::string& where,
                         std::string* err) {
  for (std::size_t i = 0; i < n; ++i) {
    const Json* f = obj.find(fields[i]);
    if (!f || !f->is_number())
      return fail(err, where + ": missing numeric field '" +
                           std::string(fields[i]) + "'");
  }
  return true;
}

}  // namespace

bool validate_run_report(const Json& report, std::string* err) {
  if (!report.is_object()) return fail(err, "report: not an object");
  const Json* version = report.find("schema_version");
  if (!version || !version->is_number() || version->as_number() != 1)
    return fail(err, "report: schema_version must be the number 1");
  const Json* tool = report.find("tool");
  if (!tool || !tool->is_string() || tool->as_string().empty())
    return fail(err, "report: 'tool' must be a non-empty string");
  const Json* wall = report.find("wall_ms");
  if (!wall || !wall->is_number() || wall->as_number() < 0)
    return fail(err, "report: 'wall_ms' must be a non-negative number");

  const Json* m = report.find("metrics");
  if (!m || !m->is_object()) return fail(err, "report: 'metrics' must be an object");
  for (const char* group : {"counters", "gauges", "histograms"}) {
    const Json* g = m->find(group);
    if (!g || !g->is_object())
      return fail(err, std::string("metrics: '") + group + "' must be an object");
    for (const auto& kv : g->items()) {
      if (std::string(group) == "histograms") {
        if (!kv.second.is_object())
          return fail(err, "histogram '" + kv.first + "': not an object");
        static const char* const kHistFields[] = {
            "count", "sum", "mean", "p50", "p95", "p99", "min", "max"};
        if (!check_number_fields(kv.second, kHistFields, 8,
                                 "histogram '" + kv.first + "'", err))
          return false;
      } else if (!kv.second.is_number()) {
        return fail(err, std::string(group) + " '" + kv.first + "': not a number");
      }
    }
  }

  const Json* spans = report.find("spans");
  if (!spans || !spans->is_array()) return fail(err, "report: 'spans' must be an array");
  for (std::size_t i = 0; i < spans->size(); ++i) {
    const Json& s = spans->at(i);
    if (!s.is_object()) return fail(err, "spans[" + std::to_string(i) + "]: not an object");
    const Json* name = s.find("name");
    if (!name || !name->is_string())
      return fail(err, "spans[" + std::to_string(i) + "]: missing string 'name'");
    static const char* const kSpanFields[] = {"count", "total_ms", "p50_ms",
                                              "p95_ms"};
    if (!check_number_fields(s, kSpanFields, 4,
                             "span '" + name->as_string() + "'", err))
      return false;
  }

  const Json* trace = report.find("trace");
  if (!trace || !trace->is_object()) return fail(err, "report: 'trace' must be an object");
  const Json* enabled = trace->find("enabled");
  if (!enabled || !enabled->is_bool())
    return fail(err, "trace: 'enabled' must be a bool");
  static const char* const kTraceFields[] = {"events", "dropped",
                                             "dropped_spans"};
  if (!check_number_fields(*trace, kTraceFields, 3, "trace", err)) return false;

  // Extra sections (e.g. "pool"): any remaining key must be a container,
  // so downstream scrapers can rely on flat core keys only.
  for (const auto& kv : report.items()) {
    const std::string& k = kv.first;
    if (k == "schema_version" || k == "tool" || k == "wall_ms" ||
        k == "metrics" || k == "spans" || k == "trace")
      continue;
    if (!kv.second.is_object() && !kv.second.is_array())
      return fail(err, "section '" + k + "': must be an object or array");
  }
  return true;
}

}  // namespace pp::obs
