#include "serve/transport.hpp"

#include <unistd.h>

#include <cerrno>
#include <memory>
#include <mutex>

#include "common/error.hpp"

namespace pp::serve {

bool write_line_fd(int fd, const std::string& line) {
  std::string framed = line;
  framed += '\n';
  std::size_t off = 0;
  while (off < framed.size()) {
    ssize_t n = ::write(fd, framed.data() + off, framed.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool LineReader::next(std::string& line) {
  for (;;) {
    std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    if (eof_) {
      if (buf_.empty()) return false;
      line.swap(buf_);
      buf_.clear();
      return true;
    }
    char chunk[4096];
    ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      // Read ERROR, not end-of-stream: the buffered tail is a half-received
      // line that must never be parsed as a request. Drop it and surface
      // the failure distinctly from a clean EOF via failed().
      failed_ = true;
      eof_ = true;
      buf_.clear();
    } else if (n == 0) {
      eof_ = true;
    } else {
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }
}

namespace {

/// Shared, mutex-serialized response sink over one fd. Held via shared_ptr
/// by every in-flight generation callback so late executor-thread
/// completions stay valid even while serve_stream is draining. No
/// outstanding count: serve_stream ends with GenerationServer::shutdown,
/// which joins the executors after they ran every completion callback.
/// (The epoll tier uses its own nonblocking sink; this one is for the pipe
/// path, where a blocking write is fine.)
struct ResponseWriter : ResponseSink {
  explicit ResponseWriter(int fd) : fd(fd) {}
  void write(const obs::Json& j) override {
    std::lock_guard<std::mutex> lk(m);
    write_line_fd(fd, j.dump());
  }
  void begin_async() override {}
  void end_async(const obs::Json& j) override { write(j); }
  int fd;
  std::mutex m;
};

obs::Json error_response(std::uint64_t id, ErrorCode code,
                         const std::string& message) {
  return GenResponse::fail(id, code, message).to_json();
}

obs::Json ok_response(std::uint64_t id) {
  obs::Json o = obs::Json::object();
  o.set("id", obs::Json(id));
  o.set("ok", obs::Json(true));
  return o;
}

}  // namespace

obs::Json shutdown_ack(std::uint64_t id) {
  obs::Json o = ok_response(id);
  o.set("draining", obs::Json(true));
  return o;
}

DispatchResult dispatch_line(const std::string& line,
                             GenerationServer& server, ModelRegistry& registry,
                             const std::shared_ptr<ResponseSink>& sink) {
  DispatchResult result;
  std::string perr;
  obs::Json j = obs::Json::parse(line, &perr);
  if (!j.is_object()) {
    sink->write(error_response(0, ErrorCode::kBadRequest,
                               "unparseable request: " + perr));
    return result;
  }
  std::uint64_t id = 0;
  if (!get_u64(j, "id", 0, &id)) {
    sink->write(error_response(0, ErrorCode::kBadRequest,
                               "id must be a whole number"));
    return result;
  }
  const std::string op = get_string(j, "op", "");

  if (op == "ping") {
    obs::Json o = ok_response(id);
    o.set("pong", obs::Json(true));
    sink->write(o);
  } else if (op == "stats") {
    obs::Json o = ok_response(id);
    o.set("stats", server.stats_json());
    sink->write(o);
  } else if (op == "metrics") {
    // Live scrape: registry snapshot + this server's rolling windows.
    // Reads lock-free against writers, so scraping mid-load is safe.
    obs::Json o = ok_response(id);
    o.set("metrics", server.metrics_json());
    sink->write(o);
  } else if (op == "health") {
    obs::Json o = ok_response(id);
    o.set("health", server.health_json());
    sink->write(o);
  } else if (op == "load") {
    ModelSpec spec;
    std::string err;
    if (!ModelSpec::from_json(j, &spec, &err)) {
      sink->write(error_response(id, ErrorCode::kBadRequest, err));
      return result;
    }
    try {
      ModelRegistry::EntryPtr entry = registry.load(spec);
      obs::Json o = ok_response(id);
      o.set("model", obs::Json(spec.key));
      o.set("trained", obs::Json(entry->trained));
      o.set("generation", obs::Json(entry->generation));
      o.set("clip", obs::Json(entry->cfg.clip_size));
      sink->write(o);
    } catch (const ConfigError& e) {
      sink->write(error_response(id, ErrorCode::kInvalidConfig, e.what()));
    } catch (const std::exception& e) {
      sink->write(error_response(id, ErrorCode::kBadRequest, e.what()));
    }
  } else if (op == "cancel") {
    std::uint64_t target = 0;
    if (!get_u64(j, "target", 0, &target)) {
      sink->write(error_response(id, ErrorCode::kBadRequest,
                                 "target must be a whole number"));
      return result;
    }
    obs::Json o = ok_response(id);
    o.set("found", obs::Json(server.cancel(target)));
    sink->write(o);
  } else if (op == "shutdown") {
    result.shutdown = true;
    result.shutdown_id = id;
  } else if (op == "sample" || op == "inpaint" || op == "expand") {
    GenRequest req;
    std::string err;
    if (!gen_request_from_json(j, &req, &err)) {
      sink->write(error_response(id, ErrorCode::kBadRequest, err));
      return result;
    }
    sink->begin_async();
    server.submit(std::move(req), [sink](GenResponse resp) {
      sink->end_async(resp.to_json());
    });
  } else {
    sink->write(error_response(id, ErrorCode::kBadRequest,
                               "unknown op '" + op + "'"));
  }
  return result;
}

StreamResult serve_stream(int in_fd, int out_fd, GenerationServer& server,
                          ModelRegistry& registry) {
  auto writer = std::make_shared<ResponseWriter>(out_fd);
  LineReader reader(in_fd);
  server.start();

  int handled = 0;
  std::string line;
  bool shutdown_requested = false;
  std::uint64_t shutdown_id = 0;
  while (!shutdown_requested && reader.next(line)) {
    if (line.empty()) continue;
    ++handled;
    DispatchResult r = dispatch_line(line, server, registry, writer);
    if (r.shutdown) {
      shutdown_requested = true;
      shutdown_id = r.shutdown_id;
    }
  }

  // Graceful drain: every accepted request's response is written (from the
  // executor thread) before the loop returns; the shutdown ack goes last.
  server.shutdown();
  if (shutdown_requested) writer->write(shutdown_ack(shutdown_id));
  return {handled, shutdown_requested};
}

}  // namespace pp::serve
