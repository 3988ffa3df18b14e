// Wide-event request log: one NDJSON line per request the server finished
// with — completed, failed mid-flight, or rejected at admission. Each line
// carries the whole request story (model, sampler knobs, queue/run/e2e
// timings, step-batch participation, outcome + error code), so one grep
// answers questions that would otherwise need a join across metrics,
// traces and stats dumps.
//
// Lines append under a mutex (the writer is the executor / submit path,
// whose per-request cost already dwarfs one formatted write) to a
// size-rotated file: when the active file would exceed kRotateBytes the
// log renames it to `<path>.1` (replacing any previous rotation) and
// starts fresh, bounding disk use at ~2x kRotateBytes.
//
// The path comes from ServerConfig::request_log (ppaint_serve
// --request-log); empty disables the log.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>

namespace pp::obs {
class Json;
}

namespace pp::serve {

/// Size at which the active file rotates to `<path>.1`.
inline constexpr std::uint64_t kRotateBytes = 4ull << 20;

class RequestLog {
 public:
  RequestLog() = default;
  /// An empty path disables logging.
  explicit RequestLog(std::string path);

  bool enabled() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

  /// Appends one compact JSON line. Thread-safe; silently drops on I/O
  /// failure (telemetry must never take the serve path down).
  void write(const obs::Json& line);

  /// Lines appended since construction (across rotations).
  std::uint64_t lines_written() const;

 private:
  void open_locked();
  void rotate_locked();

  std::string path_;
  mutable std::mutex m_;
  std::ofstream out_;
  std::uint64_t bytes_ = 0;
  std::uint64_t lines_ = 0;
};

}  // namespace pp::serve
