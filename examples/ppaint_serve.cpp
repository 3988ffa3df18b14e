// ppaint_serve — the pattern-generation service frontend.
//
//   ppaint_serve pipe   [options]              # NDJSON on stdin/stdout
//   ppaint_serve socket <path> [options]       # epoll tier, UDS listener
//   ppaint_serve tcp <host:port> [options]     # epoll tier, TCP listener
//
// The socket and tcp modes run the SAME nonblocking epoll event loop
// (serve/net.hpp): thousands of concurrent NDJSON connections multiplex
// onto the sharded executor, responses never block behind a slow client
// (bounded per-connection output buffers), and a Unix socket path is
// probed before bind so two instances cannot clobber each other.
// `--tcp host:port` adds a TCP listener alongside the UDS one in socket
// mode, serving both families from one loop.
//
// Options:
//   --max-queue N      admission bound on pending requests   (default 64)
//   --max-batch N      running-batch cap, in samples, and the largest
//                      request `count` admitted (default 16)
//   --shards N         executor shards (same-model affinity)  (default 1)
//   --cache N          generation-cache entries, 0 = off      (default 256)
//   --tcp HOST:PORT    additional TCP listener (socket mode)
//   --backlog N        listen(2) backlog                      (default 512)
//   --max-conns N      concurrent-connection cap              (default 4096)
//   --port-file PATH   write the bound TCP port (atomic), for port 0
//   --stats PATH       write the serve stats dump (JSON) on exit, atomically
//   --publish PATH     periodic live metrics snapshot (atomic tmp+rename
//                      JSON: registry + rolling windows), refreshed every
//                      --publish-ms
//   --publish-ms N     publisher cadence (default PP_PUBLISH_MS or 1000)
//   --request-log PATH wide-event NDJSON request log (default PP_REQLOG;
//                      rotation at PP_REQLOG_ROTATE_BYTES)
//
// Live scraping without the file: send {"op":"metrics"} or {"op":"health"}
// on any connection — both read without stopping the executors.
//
// Models are registered at runtime with {"op":"load", ...} requests; see
// src/serve/protocol.hpp for the full NDJSON schema. Pipe mode serves one
// client stream and drains on EOF or {"op":"shutdown"}. The epoll modes
// exit on SIGINT/SIGTERM or a shutdown op from any connection, draining
// in-flight work first. All logs go to stderr; stdout carries only NDJSON
// responses in pipe mode.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cli_args.hpp"
#include "obs/report.hpp"
#include "serve/net.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"

namespace {

using namespace pp;
using cli::parse_num;

constexpr const char* kProg = "ppaint_serve";

volatile std::sig_atomic_t g_signalled = 0;

void on_signal(int) { g_signalled = 1; }

struct Options {
  std::string mode;
  std::string socket_path;
  std::string tcp_host;
  int tcp_port = -1;  ///< -1 = no TCP listener
  std::string port_file;
  std::string stats_path;
  std::string publish_path;
  int publish_ms = 0;  // 0 = PP_PUBLISH_MS or 1000
  int backlog = 512;
  std::size_t max_conns = 4096;
  serve::ServerConfig server;
};

int default_publish_ms() {
  if (const char* env = std::getenv("PP_PUBLISH_MS")) {
    char* end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end != env && v > 0) return static_cast<int>(v);
  }
  return 1000;
}

void usage() {
  std::fprintf(stderr,
               "ppaint_serve — PatternPaint generation service\n"
               "  ppaint_serve pipe   [options]\n"
               "  ppaint_serve socket <path> [options]\n"
               "  ppaint_serve tcp <host:port> [options]\n"
               "Options: --max-queue N  --max-batch N  --shards N  --cache N\n"
               "         --tcp HOST:PORT  --backlog N  --max-conns N\n"
               "         --port-file PATH  --stats PATH\n"
               "         --publish PATH  --publish-ms N  --request-log PATH\n"
               "Requests are NDJSON (one JSON object per line); see "
               "src/serve/protocol.hpp.\n");
}

bool parse_hostport(const char* flag, const std::string& v, std::string* host,
                    int* port) {
  const std::size_t colon = v.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "ppaint_serve: %s needs HOST:PORT, got '%s'\n", flag,
                 v.c_str());
    return false;
  }
  long long p = 0;
  if (!parse_num(kProg, flag, v.substr(colon + 1), 0, 65535, &p))
    return false;
  *host = v.substr(0, colon);
  *port = static_cast<int>(p);
  return true;
}

bool parse_options(int argc, char** argv, Options* opt) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return false;
  opt->mode = args[0];
  opt->server.cache_entries = 256;  // repeat traffic is free by default
  std::size_t i = 1;
  if (opt->mode == "socket") {
    if (args.size() < 2) return false;
    opt->socket_path = args[1];
    i = 2;
  } else if (opt->mode == "tcp") {
    if (args.size() < 2 ||
        !parse_hostport("tcp", args[1], &opt->tcp_host, &opt->tcp_port))
      return false;
    i = 2;
  } else if (opt->mode != "pipe") {
    return false;
  }
  for (; i < args.size(); ++i) {
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "ppaint_serve: %s needs a value\n", flag);
        std::exit(2);
      }
      return args[++i];
    };
    long long n = 0;
    if (args[i] == "--max-queue") {
      if (!parse_num(kProg, "--max-queue", next("--max-queue"), 1, 1 << 20,
                     &n))
        return false;
      opt->server.max_queue = static_cast<std::size_t>(n);
    } else if (args[i] == "--max-batch") {
      if (!parse_num(kProg, "--max-batch", next("--max-batch"), 1, 4096, &n))
        return false;
      opt->server.max_batch_samples = static_cast<int>(n);
    } else if (args[i] == "--shards") {
      if (!parse_num(kProg, "--shards", next("--shards"), 1, 256, &n))
        return false;
      opt->server.shards = static_cast<std::size_t>(n);
    } else if (args[i] == "--cache") {
      if (!parse_num(kProg, "--cache", next("--cache"), 0, 1 << 24, &n))
        return false;
      opt->server.cache_entries = static_cast<std::size_t>(n);
    } else if (args[i] == "--tcp") {
      if (!parse_hostport("--tcp", next("--tcp"), &opt->tcp_host,
                          &opt->tcp_port))
        return false;
    } else if (args[i] == "--backlog") {
      if (!parse_num(kProg, "--backlog", next("--backlog"), 1, 65535, &n))
        return false;
      opt->backlog = static_cast<int>(n);
    } else if (args[i] == "--max-conns") {
      if (!parse_num(kProg, "--max-conns", next("--max-conns"), 1, 1 << 20,
                     &n))
        return false;
      opt->max_conns = static_cast<std::size_t>(n);
    } else if (args[i] == "--port-file") {
      opt->port_file = next("--port-file");
    } else if (args[i] == "--stats") {
      opt->stats_path = next("--stats");
    } else if (args[i] == "--publish") {
      opt->publish_path = next("--publish");
    } else if (args[i] == "--publish-ms") {
      if (!parse_num(kProg, "--publish-ms", next("--publish-ms"), 1, 1 << 30,
                     &n))
        return false;
      opt->publish_ms = static_cast<int>(n);
    } else if (args[i] == "--request-log") {
      opt->server.request_log.path = next("--request-log");
    } else {
      std::fprintf(stderr, "ppaint_serve: unknown option '%s'\n",
                   args[i].c_str());
      return false;
    }
  }
  if (opt->mode != "pipe" && opt->socket_path.empty() && opt->tcp_port < 0) {
    std::fprintf(stderr, "ppaint_serve: no listener configured\n");
    return false;
  }
  return true;
}

int run_pipe(serve::GenerationServer& server, serve::ModelRegistry& registry) {
  serve::StreamResult res =
      serve::serve_stream(STDIN_FILENO, STDOUT_FILENO, server, registry);
  std::fprintf(stderr, "ppaint_serve: pipe session done, %d requests%s\n",
               res.handled, res.shutdown ? " (shutdown op)" : " (EOF)");
  return 0;
}

int run_net(const Options& opt, serve::GenerationServer& server,
            serve::ModelRegistry& registry) {
  serve::NetServerConfig ncfg;
  ncfg.backlog = opt.backlog;
  ncfg.max_connections = opt.max_conns;
  ncfg.transport.shutdown_on_eof = false;  // connections come and go
  serve::NetServer net(server, registry, ncfg);
  std::string err;
  if (!opt.socket_path.empty()) {
    if (!net.add_uds_listener(opt.socket_path, &err)) {
      std::fprintf(stderr, "ppaint_serve: %s\n", err.c_str());
      return 1;
    }
    std::fprintf(stderr, "ppaint_serve: listening on %s\n",
                 opt.socket_path.c_str());
  }
  if (opt.tcp_port >= 0) {
    int bound = opt.tcp_port;
    if (!net.add_tcp_listener(opt.tcp_host, opt.tcp_port, &err, &bound)) {
      std::fprintf(stderr, "ppaint_serve: %s\n", err.c_str());
      return 1;
    }
    std::fprintf(stderr, "ppaint_serve: listening on %s:%d\n",
                 opt.tcp_host.empty() ? "0.0.0.0" : opt.tcp_host.c_str(),
                 bound);
    // Port 0 asks the kernel: publish the real port so clients/tests can
    // find it without a race.
    if (!opt.port_file.empty())
      pp::obs::write_text_atomic(opt.port_file, std::to_string(bound) + "\n");
  }
  serve::NetRunResult res = net.run([] { return g_signalled != 0; });
  server.shutdown();
  std::fprintf(stderr,
               "ppaint_serve: drained, exiting (%llu requests, %llu "
               "connections%s)\n",
               static_cast<unsigned long long>(res.handled),
               static_cast<unsigned long long>(res.accepted),
               res.shutdown ? ", shutdown op" : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, &opt)) {
    usage();
    return argc <= 1 ? 0 : 2;
  }
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);  // client gone: write() errors are handled

  auto registry = std::make_shared<serve::ModelRegistry>();
  serve::GenerationServer server(registry, opt.server);

  // Snapshot publisher: a sidecar thread refreshing an atomic (tmp+rename)
  // JSON file with the live registry + rolling windows, so dashboards can
  // scrape without holding a connection.
  std::atomic<bool> publish_stop{false};
  std::thread publisher;
  if (!opt.publish_path.empty()) {
    const int interval_ms =
        opt.publish_ms > 0 ? opt.publish_ms : default_publish_ms();
    publisher = std::thread([&server, &publish_stop, interval_ms,
                             path = opt.publish_path] {
      do {
        pp::obs::write_text_atomic(path,
                                   server.metrics_json().dump(2) + "\n");
        for (int waited = 0; waited < interval_ms && !publish_stop.load();
             waited += 20)
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
      } while (!publish_stop.load());
      // One last snapshot so the file reflects the final state on exit.
      pp::obs::write_text_atomic(path, server.metrics_json().dump(2) + "\n");
    });
    std::fprintf(stderr, "ppaint_serve: publishing metrics -> %s every %dms\n",
                 opt.publish_path.c_str(), interval_ms);
  }

  int rc = opt.mode == "pipe" ? run_pipe(server, *registry)
                              : run_net(opt, server, *registry);
  if (publisher.joinable()) {
    publish_stop.store(true);
    publisher.join();
  }
  if (!opt.stats_path.empty() && server.write_stats(opt.stats_path))
    std::fprintf(stderr, "ppaint_serve: stats -> %s\n", opt.stats_path.c_str());
  return rc;
}
