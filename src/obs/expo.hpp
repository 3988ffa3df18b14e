// Scrape-facing exposition of the metrics registry: the registry's JSON
// form wrapped with a schema tag and uptime, read through the same
// lock-free snapshot path writers never notice. It is the payload served
// for `metrics` wire requests and periodic snapshot files.
#pragma once

namespace pp::obs {

class Json;

/// {"snapshot": "pp.metrics.v1", "uptime_ms": ..., "metrics": {...},
///  "trace": {"events": n, "dropped_spans": n}}.
Json metrics_snapshot_json();

}  // namespace pp::obs
