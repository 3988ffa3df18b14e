// ppbench: the benchmark program behind benchmark/run.py.
//
//   ppbench prepare --work DIR [--quick]
//       Trains the pretrained and the finetuned sd1 checkpoints once into
//       DIR (skipped when both exist). Training is seeded, so every
//       checkout builds the same model.
//   ppbench run --workload W --seed N --seconds S --trace 0|1 --work DIR
//       [--quick]
//       Runs one workload and prints one JSON line: host, correct,
//       attempted, failed, failures, the e2e metrics and, when traced, the
//       layer metrics. Exit 0 when every output check passed, 1 when one
//       failed, 2 on a usage or set-up error.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <thread>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "metrics/entropy.hpp"
#include "nn/simd.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "patterngen/track_generator.hpp"
#include "ppbench.hpp"

namespace ppbench {

using namespace pp;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::duration millis(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

Sizes sizes_for(bool quick) {
  Sizes s;
  if (!quick) return s;
  s.setup_reps = 2;
  s.finetune_steps = 2;
  s.probe_per_starter = 1;
  s.library_templates = 1;
  s.library_rounds = 1;
  s.library_samples = 4;
  s.expand_edge = 64;
  s.check_edge = 64;
  s.serve_eval = 4;
  s.kernel_min_ms = 1;
  return s;
}

RuleSet bench_rules() { return scale_rules_down(advance_rules(), 2); }

PatternPaintConfig model_config(bool quick) {
  // The repository's quick-scale sd1 experiment configuration.
  PatternPaintConfig cfg = config_by_name("sd1");
  cfg.clip_size = 32;
  cfg.pretrain_corpus = 160;
  cfg.pretrain_steps = quick ? 4 : 350;
  cfg.pretrain_batch = 6;
  cfg.finetune_steps = quick ? 2 : 150;
  cfg.finetune_batch = 6;
  cfg.prior_samples = 8;
  cfg.variations_per_mask = 1;
  cfg.representatives = 10;
  cfg.samples_per_iteration = 36;
  return cfg;
}

std::string pretrained_path(const Options& o) {
  return o.work + "/pre_sd1.bin";
}
std::string finetuned_path(const Options& o) {
  return o.work + "/ft_sd1.bin";
}

std::vector<Raster> make_starters(int n, std::uint64_t seed) {
  Rng rng(seed);
  TrackPatternGenerator gen(track_config_for_clip(32), bench_rules());
  return gen.generate(static_cast<std::size_t>(n), rng);
}

std::unique_ptr<PatternPaint> load_model(const Options& o, bool finetuned,
                                         std::uint64_t seed) {
  const std::string path = finetuned ? finetuned_path(o) : pretrained_path(o);
  PP_REQUIRE_MSG(std::filesystem::exists(path),
                 "missing checkpoint " + path + " (run ppbench prepare)");
  PatternPaintConfig cfg = model_config(o.quick);
  cfg.finetune_steps = o.sizes.finetune_steps;
  auto model = std::make_unique<PatternPaint>(cfg, bench_rules(), seed);
  // pretrain() with an existing checkpoint only loads it and marks the
  // model pretrained, which finetune() requires.
  model->pretrain(path);
  return model;
}

void warm_up(PatternPaint& model) {
  const int clip = model.config().clip_size;
  nn::Tensor known = nn::Tensor::full({1, 1, clip, clip}, -1.0f);
  nn::Tensor mask = nn::Tensor::full({1, 1, clip, clip}, 1.0f);
  model.model().inpaint(known, mask, {kEvalSeed});
}

void Digest::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ULL;
  }
}

void Digest::raster(const Raster& r) {
  u64(static_cast<std::uint64_t>(r.width()));
  u64(static_cast<std::uint64_t>(r.height()));
  bytes(r.data().data(), r.data().size());
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

void Quality::add(const DrcChecker& checker, const Raster& clip) {
  const DrcResult r = checker.check(clip);
  ++clips;
  violations += r.violations.size();
  // The library's legality test: DR-clean and not empty.
  if (r.clean() && clip.count_ones() > 0) {
    ++legal;
    legal_clips.push_back(clip);
  }
}

double Quality::violations_per_clip() const {
  return clips ? static_cast<double>(violations) / static_cast<double>(clips)
               : 0.0;
}

double Quality::legal_rate() const {
  return clips ? static_cast<double>(legal) / static_cast<double>(clips) : 0.0;
}

double Quality::h2() const { return entropy_h2(deduplicate(legal_clips)); }

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  failures.push_back(what);
}

std::uint64_t sub_seed(std::uint64_t seed, Purpose purpose) {
  return Rng::stream(seed, purpose).draw_seed();
}

namespace {

void set_cpus(pid_t tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(tid, sizeof set, &set);  // best effort: timing only
}

std::vector<pid_t> thread_ids() {
  std::vector<pid_t> tids;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task"))
    tids.push_back(static_cast<pid_t>(std::stol(e.path().filename().string())));
  return tids;
}

}  // namespace

const std::vector<int>& process_cpus() {
  static const std::vector<int> cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> v;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) v.push_back(c);
    return v;
  }();
  return cpus;
}

void pin_thread(pid_t tid, std::size_t turn) {
  const std::vector<int>& cpus = process_cpus();
  if (!cpus.empty()) set_cpus(tid, {cpus[turn % cpus.size()]});
}

void unpin_threads() {
  for (pid_t tid : thread_ids()) set_cpus(tid, process_cpus());
}

std::vector<pid_t> threads_started_by(const std::function<void()>& fn) {
  const std::vector<pid_t> before = thread_ids();
  fn();
  std::vector<pid_t> started;
  for (pid_t t : thread_ids())
    if (std::find(before.begin(), before.end(), t) == before.end())
      started.push_back(t);
  return started;
}

double timed_setup(const Options& o, const std::function<void()>& build,
                   const std::function<void()>& reset) {
  std::vector<double> s;
  for (int i = 0; i < o.sizes.setup_reps; ++i) {
    if (reset) reset();
    pin_thread(0, static_cast<std::size_t>(i));
    const Clock::time_point t0 = Clock::now();
    build();
    s.push_back(seconds_since(t0));
  }
  unpin_threads();  // threads the set-up started inherited its pin
  return median(s);
}

std::vector<double> timed_ops(double seconds, int min_ops,
                              const std::function<void()>& op) {
  std::vector<double> ms;
  double total_ms = 0.0;
  const Clock::time_point start = Clock::now();
  // Another op runs while it would end nearer to `seconds` than stopping now.
  while (static_cast<int>(ms.size()) < min_ops ||
         seconds_since(start) + 0.5e-3 * total_ms / ms.size() < seconds) {
    pin_thread(0, ms.size());
    const Clock::time_point t0 = Clock::now();
    {
      PP_TRACE_SPAN("bench.op");
      op();
    }
    ms.push_back(seconds_since(t0) * 1e3);
    total_ms += ms.back();
  }
  unpin_threads();
  return ms;
}

namespace {

int prepare(const Options& o) {
  std::filesystem::create_directories(o.work);
  if (std::filesystem::exists(pretrained_path(o)) &&
      std::filesystem::exists(finetuned_path(o)))
    return 0;
  PatternPaint model(model_config(o.quick), bench_rules(), kTrainSeed);
  model.pretrain(pretrained_path(o));
  model.finetune(make_starters(o.sizes.starters, kTrainStartersSeed),
                 finetuned_path(o));
  return 0;
}

obs::Json host_json() {
  obs::Json h = obs::Json::object();
  h.set("nproc", obs::Json(static_cast<std::size_t>(
                     std::thread::hardware_concurrency())));
  h.set("isa", obs::Json(nn::isa_name(nn::active_isa())));
  h.set("compiler", obs::Json(std::string("g++ ") + __VERSION__));
  h.set("pool_width", obs::Json(parallel_thread_count()));
  return h;
}

/// Samples the allocator's live bytes every millisecond and keeps the
/// maximum: unlike peak RSS it does not depend on how the allocator's
/// per-thread arenas happened to fragment.
class HeapSampler {
 public:
  HeapSampler() : thread_([this] {
      while (!stop_.load()) {
        const struct mallinfo2 mi = mallinfo2();
        peak_ = std::max<std::size_t>(peak_, mi.uordblks + mi.hblkhd);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }) {}
  ~HeapSampler() { stop(); }
  HeapSampler(const HeapSampler&) = delete;
  HeapSampler& operator=(const HeapSampler&) = delete;
  double stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return static_cast<double>(peak_) / (1024.0 * 1024.0);
  }

 private:
  std::atomic<bool> stop_{false};
  std::size_t peak_ = 0;
  std::thread thread_;
};

int run(const Options& o) {
  HeapSampler heap;
  Outcome out;
  if (o.workload == "finetune") {
    run_finetune(o, out);
  } else if (o.workload == "library") {
    run_library(o, out);
  } else if (o.workload == "expand") {
    run_expand(o, out);
  } else if (o.workload == "serve") {
    run_serve(o, out);
  } else {
    std::fprintf(stderr, "ppbench: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }
  out.metric(out.e2e, "peak_heap_mb", heap.stop(), "MB");
  if (o.trace) {
    out.check(obs::trace_dropped() == 0, "trace buffer dropped spans");
    conv_kernel_phase(o, out);
  }

  auto metrics_json = [](const std::vector<Metric>& ms) {
    obs::Json j = obs::Json::object();
    for (const Metric& m : ms) {
      obs::Json v = obs::Json::object();
      v.set("value", obs::Json(m.value));
      v.set("unit", obs::Json(m.unit));
      j.set(m.name, std::move(v));
    }
    return j;
  };
  obs::Json failures = obs::Json::array();
  for (const std::string& f : out.failures) failures.push_back(obs::Json(f));
  obs::Json doc = obs::Json::object();
  doc.set("host", host_json());
  doc.set("correct", obs::Json(out.failed == 0));
  doc.set("attempted", obs::Json(out.attempted));
  doc.set("failed", obs::Json(out.failed));
  doc.set("failures", std::move(failures));
  doc.set("e2e", metrics_json(out.e2e));
  doc.set("layers", metrics_json(out.layers));
  std::printf("%s\n", doc.dump().c_str());
  std::fflush(stdout);
  return out.failed == 0 ? 0 : 1;
}

bool parse_args(int argc, char** argv, std::string* cmd, Options* o) {
  if (argc < 2) return false;
  *cmd = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char** out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    const char* v = nullptr;
    if (a == "--quick") {
      o->quick = true;
    } else if (a == "--workload" && value(&v)) {
      o->workload = v;
    } else if (a == "--seed" && value(&v)) {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds" && value(&v)) {
      o->seconds = std::atof(v);
    } else if (a == "--trace" && value(&v)) {
      o->trace = std::strcmp(v, "0") != 0;
    } else if (a == "--work" && value(&v)) {
      o->work = v;
    } else {
      return false;
    }
  }
  o->sizes = sizes_for(o->quick);
  return !o->work.empty() && o->seconds > 0.0;
}

}  // namespace
}  // namespace ppbench

int main(int argc, char** argv) {
  std::string cmd;
  ppbench::Options o;
  if (!ppbench::parse_args(argc, argv, &cmd, &o) ||
      (cmd != "prepare" && cmd != "run")) {
    std::fprintf(stderr,
                 "usage: ppbench prepare --work DIR [--quick]\n"
                 "       ppbench run --workload W --seed N --seconds S "
                 "--trace 0|1 --work DIR [--quick]\n");
    return 2;
  }
  // One buffer per thread holds a whole traced window: a dropped span
  // fails the run.
  if (o.trace) setenv("PP_TRACE_BUF", "1048576", /*overwrite=*/0);
  // A serial pool: on a few shared cores, a pool as wide as the machine
  // waits on whichever worker the host preempted, so its times followed
  // the neighbours' load; one thread was faster and steadier at these
  // sizes (README, "Pool width").
  setenv("PP_THREADS", "1", /*overwrite=*/0);
  ppbench::process_cpus();  // the affinity as started, before any pin
  try {
    return cmd == "prepare" ? ppbench::prepare(o) : ppbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ppbench: %s\n", e.what());
    return 2;
  }
}
