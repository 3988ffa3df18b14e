// The run report: one JSON document per run that snapshots every
// observability source — metrics registry, span summary, trace status and
// any registered extra sections (e.g. the thread pool publishes one).
//
// Schema (version 1; validate_run_report is its one validator):
//   {
//     "schema_version": 1,
//     "tool": "<producer name>",
//     "wall_ms": <monotonic ms since process trace epoch>,
//     "metrics": {"counters": {...}, "gauges": {...},
//                 "histograms": {name: {count,sum,mean,p50,p95,p99,min,max}}},
//     "spans": [{name,count,total_ms,p50_ms,p95_ms}, ...],
//     "trace": {"enabled": bool, "events": n, "dropped": n,
//               "dropped_spans": n},
//     ...one key per registered section (must be object or array)...
//   }
#pragma once

#include <functional>
#include <string>

#include "obs/json.hpp"

namespace pp::obs {

/// Registers a named section included in every subsequent report. The
/// callback runs at report-build time and must return an object or array.
/// Re-registering a key replaces it. Section keys must not collide with
/// the core keys above.
void register_report_section(const std::string& key,
                             std::function<Json()> fn);

/// Snapshot of everything, under the version-1 schema.
Json build_run_report(const std::string& tool);

/// Builds and writes (pretty-printed). Returns false on I/O failure.
/// Atomic: the document is staged to `<path>.tmp` and renamed into place,
/// so a killed process never leaves a truncated report behind.
bool write_run_report(const std::string& path, const std::string& tool);

/// Tmp+rename file write shared by every observability artifact (run
/// reports, serve stats dumps): writes `<path>.tmp`, fsync-free but
/// all-or-nothing via std::filesystem::rename. Returns false on failure,
/// leaving any previous file at `path` untouched.
bool write_text_atomic(const std::string& path, const std::string& content);

/// Structural validation against the version-1 schema. On failure returns
/// false and stores a message in `err` (when non-null).
bool validate_run_report(const Json& report, std::string* err = nullptr);

}  // namespace pp::obs
