// NDJSON transport over file descriptors — the one request-dispatch path
// behind the pipe (stdin/stdout) mode and the epoll network tier
// (serve/net.hpp: Unix-domain socket and TCP), so tests and CI exercise the
// real server path without any networking.
//
// serve_stream reads one JSON request per line from `in_fd` until EOF or a
// {"op":"shutdown"} request. Control ops (load/ping/stats/cancel/shutdown)
// are answered inline; generation ops are submitted asynchronously and
// their responses are written from the executor thread as batches
// complete — out of order, matched by id. Every response is a single
// write() of one '\n'-terminated line, serialized by an internal mutex, so
// concurrent clients can share one pipe pair (writes up to PIPE_BUF are
// atomic) and demultiplex by id.
//
// The epoll tier reuses dispatch_line() with its own ResponseSink: there
// responses are queued per connection and written nonblocking from the
// event loop, never under a shared mutex across a blocking write().
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "obs/json.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

namespace pp::serve {

struct StreamResult {
  int handled = 0;        ///< request lines processed
  bool shutdown = false;  ///< a shutdown op ended the loop
};

/// Where one connection's responses go. Inline responses (ping/stats/load/
/// errors) arrive on the thread that called dispatch_line; async generation
/// responses arrive later, on an executor thread, bracketed by
/// begin_async()/end_async() so the owner can track outstanding work.
/// Implementations must be safe to call from both threads; they are held
/// via shared_ptr by every in-flight generation callback, so a sink must
/// tolerate end_async() after its connection is gone.
class ResponseSink {
 public:
  virtual ~ResponseSink() = default;
  virtual void write(const obs::Json& j) = 0;
  virtual void begin_async() = 0;
  virtual void end_async(const obs::Json& j) = 0;
};

struct DispatchResult {
  bool shutdown = false;         ///< the line was an accepted shutdown op
  std::uint64_t shutdown_id = 0; ///< its request id (ack after draining)
};

/// Processes one NDJSON request line: parses, validates, answers control
/// ops inline through `sink` and submits generation ops asynchronously
/// (their responses arrive via sink->end_async on the executor thread).
/// A shutdown op is NOT acked here — the caller drains the server first,
/// then writes ok_response(shutdown_id) with "draining":true itself.
DispatchResult dispatch_line(const std::string& line,
                             GenerationServer& server, ModelRegistry& registry,
                             const std::shared_ptr<ResponseSink>& sink);

/// Shutdown acknowledgement line ({"id":..,"ok":true,"draining":true}).
obs::Json shutdown_ack(std::uint64_t id);

/// Runs the request loop until EOF, a read error, or a shutdown op, then
/// drains the server (GenerationServer::shutdown): every accepted request's
/// response is written before the call returns.
StreamResult serve_stream(int in_fd, int out_fd, GenerationServer& server,
                          ModelRegistry& registry);

/// One '\n'-terminated line in a single write() call (clients, tests).
/// Returns false on a write error.
bool write_line_fd(int fd, const std::string& line);

/// Incremental line reader over read(2); next() strips the trailing '\n'
/// and returns false on EOF or a read error. A final unterminated line is
/// delivered before a CLEAN EOF reports false; on a read error the partial
/// tail is DISCARDED (a half-received request must never execute) and
/// failed() distinguishes the failure from end-of-stream.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}
  bool next(std::string& line);
  /// True once a read(2) error (other than EINTR) ended the stream.
  bool failed() const { return failed_; }

 private:
  int fd_;
  std::string buf_;
  bool eof_ = false;
  bool failed_ = false;
};

}  // namespace pp::serve
