#include "obs/expo.hpp"

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pp::obs {

Json metrics_snapshot_json() {
  Json out = Json::object();
  out.set("snapshot", Json("pp.metrics.v1"));
  out.set("uptime_ms", Json(static_cast<double>(detail::now_ns()) / 1e6));
  out.set("metrics", metrics().to_json());
  Json trace = Json::object();
  trace.set("events", Json(trace_event_count()));
  trace.set("dropped_spans", Json(trace_dropped()));
  out.set("trace", std::move(trace));
  return out;
}

}  // namespace pp::obs
