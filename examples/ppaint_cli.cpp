// ppaint_cli — command-line utility around the PatternPaint substrate
// libraries: rule-based generation, DRC checking, diversity statistics and
// format conversion, all without touching the diffusion model (fast).
//
//   ppaint_cli gen <n> <out.{txt|gds}> [ruleset] [clip_size] [seed]
//   ppaint_cli check <lib.{txt|gds}> [ruleset]
//   ppaint_cli stats <lib.{txt|gds}> [ruleset]
//   ppaint_cli convert <in.{txt|gds}> <out.{txt|gds|dir}>
//   ppaint_cli client <target> [count] [seed]
//   ppaint_cli expand <target> <W> <H> <out_prefix> [seed.pgm] [rng_seed]
//   ppaint_cli top <target> [iters] [interval]
//   ppaint_cli isas
//
// `isas` prints the kernel ISA tiers this binary compiled in AND the host
// can execute, one name per line (scalar, avx2, avx512) — scripts loop
// over it to run a suite once per usable tier via PP_FORCE_ISA.
//
// Serve targets: a Unix socket path, tcp:host:port, spawn:<serve_binary>
// (pipe-mode child) or spawntcp:<serve_binary> (tcp-mode child on a
// kernel-assigned port — full network-tier round trip).
//
// Rule sets: default | complex | complex-discrete (optionally "/2" suffix
// for the half-scaled 32px variant, e.g. "complex-discrete/2").
// Running without arguments prints usage and exits 0. A malformed numeric
// argument ("1e3", "32x", a negative seed) exits 2 with a message naming
// it, before any file or server is touched.
//
// `client` round-trips one generation against a running ppaint_serve:
// connect to a Unix socket (or spawn a pipe-mode server child), load a
// tiny model, submit a sample request, and print the returned patterns
// with their DRC verdicts. `top` is a watch-mode dashboard over the
// server's `health` + `metrics` ops: rolling-window rate and p50/p95/p99
// latency, queue depth and overload state, refreshed in-terminal.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <climits>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "common/error.hpp"
#include "drc/checker.hpp"
#include "expand/plan.hpp"
#include "nn/simd.hpp"
#include "io/gds_text.hpp"
#include "io/image_io.hpp"
#include "io/pattern_io.hpp"
#include "metrics/drspace.hpp"
#include "metrics/entropy.hpp"
#include "patterngen/track_generator.hpp"
#include "serve/protocol.hpp"
#include "serve/transport.hpp"

namespace {

using namespace pp;
using cli::parse_num;

constexpr const char* kProg = "ppaint_cli";
/// Seeds travel as NDJSON numbers, exact only up to 2^53 - 1.
constexpr long long kMaxWireSeed = static_cast<long long>(serve::kMaxWireU64);
// `expand` writes its canvas as GDS, and `convert` / `check` read it back.
static_assert(kMaxGdsClipEdge >= expand::kMaxCanvasEdge,
              "an expanded canvas must fit read_gds_text's clip cap");

/// Parses the optional numeric argument args[i] into *out; an absent one
/// keeps *out's default. False after a usage error naming `name`.
bool opt_num(const std::vector<std::string>& args, std::size_t i,
             const char* name, long long lo, long long hi, long long* out) {
  return i >= args.size() || parse_num(kProg, name, args[i], lo, hi, out);
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

RuleSet parse_rules(const std::string& spec) {
  if (ends_with(spec, "/2"))
    return scale_rules_down(rules_by_name(spec.substr(0, spec.size() - 2)), 2);
  return rules_by_name(spec);
}

std::vector<Raster> load_any(const std::string& path) {
  if (ends_with(path, ".gds")) return read_gds_text(path);
  return load_pattern_library(path);
}

void save_any(const std::vector<Raster>& lib, const std::string& path) {
  if (ends_with(path, ".gds")) {
    write_gds_text(lib, path);
  } else if (ends_with(path, ".txt")) {
    save_pattern_library(lib, path);
  } else {
    // Treat as a directory of PGM images.
    std::filesystem::create_directories(path);
    for (std::size_t i = 0; i < lib.size(); ++i)
      write_pgm(lib[i], path + "/pattern_" + std::to_string(i) + ".pgm", 8);
  }
}

int cmd_gen(const std::vector<std::string>& args) {
  long long n = 0, clip = 64, seed = 42;
  if (!parse_num(kProg, "<n>", args.at(0), 1, INT_MAX, &n) ||
      !opt_num(args, 3, "[clip_size]", 16, 4096, &clip) ||
      !opt_num(args, 4, "[seed]", 0, LLONG_MAX, &seed))
    return 2;
  std::string out = args.at(1);
  RuleSet rules = parse_rules(args.size() > 2 ? args[2] : "complex-discrete");
  Rng rng(static_cast<std::uint64_t>(seed));
  TrackPatternGenerator gen(track_config_for_clip(static_cast<int>(clip)),
                            rules);
  auto lib = gen.generate(static_cast<std::size_t>(n), rng);
  save_any(lib, out);
  std::printf("generated %lld DR-clean %lldx%lld clips under '%s' -> %s\n", n,
              clip, clip, rules.name.c_str(), out.c_str());
  return 0;
}

int cmd_check(const std::vector<std::string>& args) {
  auto lib = load_any(args.at(0));
  RuleSet rules = parse_rules(args.size() > 1 ? args[1] : "complex-discrete");
  DrcChecker drc(rules);
  std::size_t clean = 0;
  for (std::size_t i = 0; i < lib.size(); ++i) {
    DrcResult res = drc.check(lib[i]);
    if (res.clean()) {
      ++clean;
    } else {
      std::printf("pattern %zu: %zu violations; first: %s\n", i,
                  res.violations.size(), res.violations[0].to_string().c_str());
    }
  }
  std::printf("%zu/%zu patterns clean under '%s'\n", clean, lib.size(),
              rules.name.c_str());
  return clean == lib.size() ? 0 : 1;
}

int cmd_stats(const std::vector<std::string>& args) {
  auto lib = load_any(args.at(0));
  LibraryStats s = library_stats(lib);
  std::printf("patterns: %zu  unique: %zu  H1: %.3f  H2: %.3f\n", s.total,
              s.unique, s.h1, s.h2);
  if (args.size() > 1) {
    RuleSet rules = parse_rules(args[1]);
    if (rules.width_is_discrete() && rules.max_space_h > 0) {
      DrSpaceProfile prof = measure_drspace(lib);
      std::printf("DR-space coverage under '%s': %.1f%% "
                  "(%zu distinct width/space/width triples)\n",
                  rules.name.c_str(), 100.0 * drspace_coverage(prof, rules),
                  prof.distinct_triples());
    }
  }
  return 0;
}

// ---- serve client -------------------------------------------------------

/// Connection to a generation service. Targets:
///   <path>              Unix socket of a running ppaint_serve
///   tcp:<host>:<port>   TCP endpoint of a running ppaint_serve
///   spawn:<binary>      child server in pipe mode (stdin/stdout)
///   spawntcp:<binary>   child server in tcp mode on a kernel-chosen port
struct ServeConn {
  int in_fd = -1;   ///< responses from the server
  int out_fd = -1;  ///< requests to the server
  pid_t child = -1;
  bool term_child = false;  ///< tcp child: SIGTERM before reaping

  ~ServeConn() {
    if (out_fd >= 0) ::close(out_fd);
    if (in_fd >= 0 && in_fd != out_fd) ::close(in_fd);
    if (child > 0) {
      // A tcp-mode child does not exit on client EOF: nudge it. (A polite
      // shutdown op normally got there first; the signal is the backstop.)
      if (term_child) ::kill(child, SIGTERM);
      ::waitpid(child, nullptr, 0);
    }
  }
};

bool connect_socket(const std::string& path, ServeConn* conn) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return false;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return false;
  }
  conn->in_fd = conn->out_fd = fd;
  return true;
}

bool connect_tcp(const std::string& host, int port, ServeConn* conn) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const char* ip = (host.empty() || host == "localhost") ? "127.0.0.1"
                                                         : host.c_str();
  if (::inet_pton(AF_INET, ip, &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return false;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  conn->in_fd = conn->out_fd = fd;
  return true;
}

/// "tcp:host:port" — the host may itself contain no colon, so split on the
/// LAST one.
bool connect_tcp_target(const std::string& hostport, ServeConn* conn) {
  const std::size_t colon = hostport.rfind(':');
  if (colon == std::string::npos) return false;
  char* end = nullptr;
  const long port = std::strtol(hostport.c_str() + colon + 1, &end, 10);
  if (end != hostport.c_str() + hostport.size() || port < 1 || port > 65535)
    return false;
  return connect_tcp(hostport.substr(0, colon), static_cast<int>(port), conn);
}

bool spawn_pipe_server(const std::string& binary, ServeConn* conn) {
  int to_child[2], from_child[2];
  if (::pipe(to_child) < 0) return false;
  if (::pipe(from_child) < 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    return false;
  }
  pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    ::execl(binary.c_str(), binary.c_str(), "pipe", static_cast<char*>(nullptr));
    std::_Exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  conn->out_fd = to_child[1];
  conn->in_fd = from_child[0];
  conn->child = pid;
  return true;
}

/// Spawns `binary tcp 127.0.0.1:0 --port-file <tmp>` and connects to the
/// kernel-assigned port once the server publishes it — exercises the full
/// epoll network tier instead of the pipe transport.
bool spawn_tcp_server(const std::string& binary, ServeConn* conn) {
  char tmpl[] = "/tmp/ppaint_cli_port_XXXXXX";
  int tmp_fd = ::mkstemp(tmpl);
  if (tmp_fd < 0) return false;
  ::close(tmp_fd);
  ::unlink(tmpl);  // server recreates it atomically once bound
  pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    ::execl(binary.c_str(), binary.c_str(), "tcp", "127.0.0.1:0",
            "--port-file", tmpl, static_cast<char*>(nullptr));
    std::_Exit(127);
  }
  conn->child = pid;
  conn->term_child = true;
  for (int tries = 0; tries < 200; ++tries) {  // up to ~10 s for slow CI
    std::FILE* f = std::fopen(tmpl, "r");
    if (f) {
      int port = 0;
      const bool got = std::fscanf(f, "%d", &port) == 1 && port > 0;
      std::fclose(f);
      if (got) {
        ::unlink(tmpl);
        return connect_tcp("127.0.0.1", port, conn);
      }
    }
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {  // child died early
      conn->child = -1;
      ::unlink(tmpl);
      return false;
    }
    ::usleep(50 * 1000);
  }
  ::unlink(tmpl);
  return false;
}

/// Resolves any of the documented serve targets into an open connection.
bool open_target(const char* who, const std::string& target, ServeConn* conn) {
  auto has_prefix = [&](const char* p) { return target.rfind(p, 0) == 0; };
  bool ok;
  if (has_prefix("spawntcp:"))
    ok = spawn_tcp_server(target.substr(9), conn);
  else if (has_prefix("spawn:"))
    ok = spawn_pipe_server(target.substr(6), conn);
  else if (has_prefix("tcp:"))
    ok = connect_tcp_target(target.substr(4), conn);
  else
    ok = connect_socket(target, conn);
  if (!ok)
    std::fprintf(stderr, "%s: cannot reach server at '%s'\n", who,
                 target.c_str());
  return ok;
}

/// Reads responses until the one with `id` arrives (responses may be out of
/// order); other ids are reported and skipped.
bool await_response(serve::LineReader& reader, std::uint64_t id,
                    obs::Json* out) {
  std::string line;
  while (reader.next(line)) {
    if (line.empty()) continue;
    obs::Json j = obs::Json::parse(line);
    std::uint64_t got = 0;
    if (!j.is_object() || !serve::get_u64(j, "id", 0, &got)) {
      std::fprintf(stderr, "client: unparseable response: %s\n", line.c_str());
      continue;
    }
    if (got == id) {
      *out = std::move(j);
      return true;
    }
  }
  std::fprintf(stderr, "client: server closed before id %llu answered\n",
               static_cast<unsigned long long>(id));
  return false;
}

int cmd_client(const std::vector<std::string>& args) {
  const std::string target = args.at(0);
  long long count = 2, seed = 7;
  if (!opt_num(args, 1, "[count]", 1, 4096, &count) ||
      !opt_num(args, 2, "[seed]", 0, kMaxWireSeed, &seed))
    return 2;

  ServeConn conn;
  if (!open_target("client", target, &conn)) return 1;
  serve::LineReader reader(conn.in_fd);
  auto send = [&](const obs::Json& j) {
    return serve::write_line_fd(conn.out_fd, j.dump());
  };

  // 1. ping — proves the transport before any heavy work.
  obs::Json req = obs::Json::object();
  req.set("id", obs::Json(1));
  req.set("op", obs::Json("ping"));
  obs::Json resp;
  if (!send(req) || !await_response(reader, 1, &resp)) return 1;

  // 2. load a tiny untrained model (fast enough for a round-trip demo;
  //    point "checkpoint" at a trained .ppw for real generation).
  req = obs::Json::object();
  req.set("id", obs::Json(2));
  req.set("op", obs::Json("load"));
  req.set("model", obs::Json("cli"));
  req.set("preset", obs::Json("sd1"));
  req.set("clip", obs::Json(16));
  req.set("timesteps", obs::Json(40));
  req.set("sample_steps", obs::Json(4));
  req.set("base_channels", obs::Json(6));
  req.set("time_dim", obs::Json(16));
  if (!send(req) || !await_response(reader, 2, &resp)) return 1;
  bool ok = false;
  serve::get_bool(resp, "ok", false, &ok);
  if (!ok) {
    std::fprintf(stderr, "client: load failed: %s\n", resp.dump().c_str());
    return 1;
  }

  // 3. one generation round-trip.
  req = obs::Json::object();
  req.set("id", obs::Json(3));
  req.set("op", obs::Json("sample"));
  req.set("model", obs::Json("cli"));
  req.set("seed", obs::Json(static_cast<std::uint64_t>(seed)));
  req.set("count", obs::Json(static_cast<int>(count)));
  req.set("finish", obs::Json(true));
  if (!send(req) || !await_response(reader, 3, &resp)) return 1;
  serve::get_bool(resp, "ok", false, &ok);
  if (!ok) {
    std::fprintf(stderr, "client: generation failed: %s\n",
                 resp.dump().c_str());
    return 1;
  }
  const obs::Json* pats = resp.find("patterns");
  const obs::Json* legal = resp.find("legal");
  for (std::size_t i = 0; pats && i < pats->size(); ++i) {
    Raster r;
    if (!serve::raster_from_json(pats->at(i), &r)) continue;
    bool lg = legal && i < legal->size() && legal->at(i).as_bool();
    std::printf("pattern %zu (%dx%d, %s):\n%s\n", i, r.width(), r.height(),
                lg ? "DR-clean" : "has violations", r.to_ascii().c_str());
  }
  double e2e = 0.0, wait = 0.0;
  serve::get_double(resp, "e2e_ms", 0.0, &e2e);
  serve::get_double(resp, "wait_ms", 0.0, &wait);
  std::printf("round-trip ok: %zu patterns, wait %.1f ms, e2e %.1f ms\n",
              pats ? pats->size() : 0, wait, e2e);

  // 4. polite shutdown of a spawned server (socket servers keep running).
  if (conn.child > 0) {
    req = obs::Json::object();
    req.set("id", obs::Json(4));
    req.set("op", obs::Json("shutdown"));
    send(req);
    await_response(reader, 4, &resp);
  }
  return 0;
}

const obs::Json* child_of(const obs::Json* o, const char* key) {
  return o ? o->find(key) : nullptr;
}

double num_of(const obs::Json* o, const char* key) {
  const obs::Json* v = child_of(o, key);
  return v && v->is_number() ? v->as_number() : 0.0;
}

std::string str_of(const obs::Json* o, const char* key) {
  const obs::Json* v = child_of(o, key);
  return v && v->is_string() ? v->as_string() : "?";
}

/// `ppaint_cli expand <target> <W> <H> <out_prefix> [seed.pgm] [rng_seed]`
/// — grows an arbitrary-size layout through the serve tier's `expand`
/// request type (wavefront-scheduled tiled outpainting) and writes the
/// returned canvas as <out_prefix>.pgm + <out_prefix>.gds. With no seed
/// image the expansion starts from an empty top-left window; a seed PGM
/// must fit inside one clip window of the loaded model.
int cmd_expand(const std::vector<std::string>& args) {
  const std::string target = args.at(0);
  long long target_w = 0, target_h = 0, rng_seed = 7;
  if (!parse_num(kProg, "<W>", args.at(1), 1, expand::kMaxCanvasEdge,
                 &target_w) ||
      !parse_num(kProg, "<H>", args.at(2), 1, expand::kMaxCanvasEdge,
                 &target_h) ||
      !opt_num(args, 5, "[rng_seed]", 0, kMaxWireSeed, &rng_seed))
    return 2;
  const std::string out_prefix = args.at(3);
  const std::string seed_pgm = args.size() > 4 ? args[4] : "";

  ServeConn conn;
  if (!open_target("expand", target, &conn)) return 1;
  serve::LineReader reader(conn.in_fd);
  auto send = [&](const obs::Json& j) {
    return serve::write_line_fd(conn.out_fd, j.dump());
  };

  // Tiny untrained model — enough to exercise the pipeline end to end;
  // point a checkpointed server at real weights for production canvases.
  obs::Json req = obs::Json::object();
  req.set("id", obs::Json(1));
  req.set("op", obs::Json("load"));
  req.set("model", obs::Json("cli"));
  req.set("preset", obs::Json("sd1"));
  req.set("clip", obs::Json(16));
  req.set("timesteps", obs::Json(40));
  req.set("sample_steps", obs::Json(4));
  req.set("base_channels", obs::Json(6));
  req.set("time_dim", obs::Json(16));
  obs::Json resp;
  if (!send(req) || !await_response(reader, 1, &resp)) return 1;
  bool ok = false;
  serve::get_bool(resp, "ok", false, &ok);
  if (!ok) {
    std::fprintf(stderr, "expand: load failed: %s\n", resp.dump().c_str());
    return 1;
  }

  req = obs::Json::object();
  req.set("id", obs::Json(2));
  req.set("op", obs::Json("expand"));
  req.set("model", obs::Json("cli"));
  req.set("seed", obs::Json(static_cast<std::uint64_t>(rng_seed)));
  req.set("target_w", obs::Json(static_cast<int>(target_w)));
  req.set("target_h", obs::Json(static_cast<int>(target_h)));
  req.set("steps", obs::Json(2));
  if (!seed_pgm.empty())
    req.set("seed_raster", serve::raster_to_json(read_pgm(seed_pgm)));
  if (!send(req) || !await_response(reader, 2, &resp)) return 1;
  serve::get_bool(resp, "ok", false, &ok);
  if (!ok) {
    std::fprintf(stderr, "expand: request failed: %s\n", resp.dump().c_str());
    return 1;
  }

  const obs::Json* pats = resp.find("patterns");
  Raster canvas;
  if (!pats || pats->size() != 1 ||
      !serve::raster_from_json(pats->at(0), &canvas)) {
    std::fprintf(stderr, "expand: response carried no canvas\n");
    return 1;
  }
  write_pgm(canvas, out_prefix + ".pgm");
  write_gds_text({canvas}, out_prefix + ".gds");

  const obs::Json* x = resp.find("expand");
  std::printf("expanded to %dx%d px: %.0f windows in %.0f waves, "
              "%.0f seam violations, DRC pass %.3f\n",
              canvas.width(), canvas.height(), num_of(x, "windows"),
              num_of(x, "waves"), num_of(x, "seam_violations"),
              num_of(x, "drc_pass_rate"));
  std::printf("wrote %s.pgm and %s.gds\n", out_prefix.c_str(),
              out_prefix.c_str());

  if (conn.child > 0) {
    req = obs::Json::object();
    req.set("id", obs::Json(3));
    req.set("op", obs::Json("shutdown"));
    send(req);
    await_response(reader, 3, &resp);
  }
  return 0;
}

// ---- live serve dashboard ----------------------------------------------

void render_top_frame(int frame, const obs::Json& health_resp,
                      const obs::Json& metrics_resp,
                      const obs::Json& stats_resp) {
  const obs::Json* health = health_resp.find("health");
  const obs::Json* metrics = metrics_resp.find("metrics");
  const obs::Json* rolling = child_of(metrics, "rolling");

  if (::isatty(STDOUT_FILENO)) std::printf("\x1b[H\x1b[2J");
  std::printf("ppaint top — frame %d\n", frame);
  std::printf("health: %-10s queue %d/%d  error_rate %.2f  req/s %.2f"
              "  trace_dropped %.0f\n",
              str_of(health, "status").c_str(),
              static_cast<int>(num_of(health, "queue_depth")),
              static_cast<int>(num_of(health, "max_queue")),
              num_of(health, "error_rate"), num_of(health, "requests_per_s"),
              num_of(health, "trace_dropped_spans"));
  for (const char* win : {"short", "long"}) {
    const obs::Json* w = child_of(rolling, win);
    const obs::Json* hists = child_of(w, "histograms");
    const obs::Json* e2e = child_of(hists, "serve.e2e_ms");
    const obs::Json* wait = child_of(hists, "serve.wait_ms");
    const obs::Json* ctrs = child_of(w, "counters");
    std::printf(
        "%-5s (%3.0fs covered %4.1fs)  e2e p50/p95/p99 %.1f/%.1f/%.1f ms"
        "  wait p95 %.1f ms  rate %.2f/s\n",
        win, num_of(w, "window_s"), num_of(w, "covered_s"),
        num_of(e2e, "p50"), num_of(e2e, "p95"), num_of(e2e, "p99"),
        num_of(wait, "p95"), num_of(e2e, "rate_per_s"));
    std::printf(
        "      accepted %.0f  completed %.0f  rejected %.0f  timeouts %.0f"
        "  cancelled %.0f\n",
        num_of(child_of(ctrs, "serve.accepted"), "count"),
        num_of(child_of(ctrs, "serve.completed"), "count"),
        num_of(child_of(ctrs, "serve.rejected"), "count"),
        num_of(child_of(ctrs, "serve.timeouts"), "count"),
        num_of(child_of(ctrs, "serve.cancelled"), "count"));
  }
  const obs::Json* stats = stats_resp.find("stats");
  const obs::Json* models = child_of(stats, "models");
  for (std::size_t i = 0; models && i < models->size(); ++i) {
    const obs::Json* mdl = &models->at(i);
    std::printf("model %-10s clip %.0f  generation %.0f  parameters %.0f\n",
                str_of(mdl, "key").c_str(), num_of(mdl, "clip"),
                num_of(mdl, "generation"), num_of(mdl, "parameters"));
  }
  std::fflush(stdout);
}

/// `ppaint_cli top <target> [iterations] [interval_ms]` — watch-mode
/// rendering of the server's rolling SLO stats via the `health` and
/// `metrics` wire ops. iterations 0 = until the connection drops.
int cmd_top(const std::vector<std::string>& args) {
  const std::string target = args.at(0);
  long long iterations = 0, interval_ms = 1000;
  if (!opt_num(args, 1, "[iterations]", 0, INT_MAX, &iterations) ||
      !opt_num(args, 2, "[interval_ms]", 0, 3600 * 1000, &interval_ms))
    return 2;

  ServeConn conn;
  if (!open_target("top", target, &conn)) return 1;
  serve::LineReader reader(conn.in_fd);
  auto send = [&](const obs::Json& j) {
    return serve::write_line_fd(conn.out_fd, j.dump());
  };

  std::uint64_t id = 1;
  for (int frame = 1; iterations == 0 || frame <= iterations; ++frame) {
    obs::Json req = obs::Json::object();
    req.set("id", obs::Json(id));
    req.set("op", obs::Json("health"));
    obs::Json health_resp;
    if (!send(req) || !await_response(reader, id, &health_resp)) return 1;
    ++id;
    req = obs::Json::object();
    req.set("id", obs::Json(id));
    req.set("op", obs::Json("metrics"));
    obs::Json metrics_resp;
    if (!send(req) || !await_response(reader, id, &metrics_resp)) return 1;
    ++id;
    req = obs::Json::object();
    req.set("id", obs::Json(id));
    req.set("op", obs::Json("stats"));
    obs::Json stats_resp;
    if (!send(req) || !await_response(reader, id, &stats_resp)) return 1;
    ++id;
    render_top_frame(frame, health_resp, metrics_resp, stats_resp);
    if (iterations != 0 && frame == iterations) break;
    ::usleep(static_cast<useconds_t>(interval_ms) * 1000);
  }

  if (conn.child > 0) {
    obs::Json req = obs::Json::object();
    req.set("id", obs::Json(id));
    req.set("op", obs::Json("shutdown"));
    send(req);
    obs::Json resp;
    await_response(reader, id, &resp);
  }
  return 0;
}

/// `ppaint_cli isas` — the usable kernel tiers of this binary on this host,
/// one per line, widest last (matching dispatch preference). Exit 0 always:
/// "scalar" is unconditionally usable.
int cmd_isas(const std::vector<std::string>&) {
  for (nn::Isa isa : {nn::Isa::kScalar, nn::Isa::kAvx2, nn::Isa::kAvx512})
    if (nn::isa_usable(isa)) std::printf("%s\n", nn::isa_name(isa));
  return 0;
}

int cmd_convert(const std::vector<std::string>& args) {
  auto lib = load_any(args.at(0));
  save_any(lib, args.at(1));
  std::printf("converted %zu patterns: %s -> %s\n", lib.size(),
              args[0].c_str(), args[1].c_str());
  return 0;
}

void usage() {
  std::printf(
      "ppaint_cli — PatternPaint layout utilities\n"
      "  ppaint_cli gen <n> <out.{txt|gds}> [ruleset] [clip_size] [seed]\n"
      "  ppaint_cli check <lib.{txt|gds}> [ruleset]\n"
      "  ppaint_cli stats <lib.{txt|gds}> [ruleset]\n"
      "  ppaint_cli convert <in.{txt|gds}> <out.{txt|gds|dir}>\n"
      "  ppaint_cli client <target> [count] [seed]\n"
      "  ppaint_cli expand <target> <W> <H> <out_prefix> [seed.pgm] "
      "[rng_seed]\n"
      "  ppaint_cli top <target> [iterations] [interval_ms]\n"
      "  ppaint_cli isas\n"
      "serve targets: <uds-path> | tcp:host:port | spawn:<serve_binary> |\n"
      "spawntcp:<serve_binary>\n"
      "rule sets: default | complex | complex-discrete (append /2 for the\n"
      "32px half-scale variant, e.g. complex-discrete/2)\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    usage();
    return 0;
  }
  try {
    std::string cmd = args.front();
    args.erase(args.begin());
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "check") return cmd_check(args);
    if (cmd == "stats") return cmd_stats(args);
    if (cmd == "convert") return cmd_convert(args);
    if (cmd == "client") return cmd_client(args);
    if (cmd == "expand") return cmd_expand(args);
    if (cmd == "top") return cmd_top(args);
    if (cmd == "isas") return cmd_isas(args);
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
