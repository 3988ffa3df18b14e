// Wide-event request log: one NDJSON line per request the server finished
// with — completed, failed mid-flight, or rejected at admission. Each line
// carries the whole request story (model, sampler knobs, queue/run/e2e
// timings, step-batch participation, outcome + error code), so one grep
// answers questions that would otherwise need a join across metrics,
// traces and stats dumps.
//
// Lines append under a mutex (the writer is the executor / submit path,
// whose per-request cost already dwarfs one formatted write) to a
// size-rotated file: when the active file would exceed `rotate_bytes` the
// log renames it to `<path>.1` (replacing any previous rotation) and
// starts fresh, bounding disk use at ~2x rotate_bytes.
//
// Configure with ServerConfig::request_log or the environment:
//   PP_REQLOG              path ("" = disabled)
//   PP_REQLOG_ROTATE_BYTES rotation threshold, a whole number of bytes in
//                          [kMinRotateBytes, kMaxRotateBytes] (default
//                          4 MiB; anything else warns and keeps it)
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>

namespace pp::obs {
class Json;
}

namespace pp::serve {

/// Bounds of PP_REQLOG_ROTATE_BYTES: 4 KiB to 1 TiB.
inline constexpr std::uint64_t kMinRotateBytes = 4096;
inline constexpr std::uint64_t kMaxRotateBytes = 1ull << 40;

struct RequestLogConfig {
  std::string path;  ///< empty = logging disabled
  std::uint64_t rotate_bytes = 4ull << 20;

  /// PP_REQLOG / PP_REQLOG_ROTATE_BYTES.
  static RequestLogConfig from_env();
};

class RequestLog {
 public:
  RequestLog() = default;
  explicit RequestLog(RequestLogConfig cfg);

  bool enabled() const { return !cfg_.path.empty(); }
  const std::string& path() const { return cfg_.path; }

  /// Appends one compact JSON line. Thread-safe; silently drops on I/O
  /// failure (telemetry must never take the serve path down).
  void write(const obs::Json& line);

  /// Lines appended since construction (across rotations).
  std::uint64_t lines_written() const;

 private:
  void open_locked();
  void rotate_locked();

  RequestLogConfig cfg_;
  mutable std::mutex m_;
  std::ofstream out_;
  std::uint64_t bytes_ = 0;
  std::uint64_t lines_ = 0;
};

}  // namespace pp::serve
