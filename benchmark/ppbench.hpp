// Shared pieces of the ppbench program: options, the fixed model set-up,
// timing helpers, the per-run result and the traced-window analysis.
//
// ppbench measures the system through the public API of each layer, the
// way a user of the library or the server calls it. It never links the
// repository's bench/ helpers, so edits there cannot change these numbers.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/patternpaint.hpp"
#include "drc/rules.hpp"
#include "geometry/raster.hpp"

namespace ppbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);
double ms_between(Clock::time_point a, Clock::time_point b);
Clock::duration millis(double ms);

/// Per-run work sizes. The full sizes are the ones README.md describes;
/// --quick shrinks them for a smoke run of the plumbing.
struct Sizes {
  int setup_reps = 9;        ///< set-ups per run; setup_s is their median
  int starters = 20;         ///< DR-clean starters generated by each set-up
  int finetune_steps = 20;   ///< optimizer steps per finetune call
  int probe_per_starter = 2; ///< finetune quality probe: clips per starter
  int library_templates = 3; ///< starters one Fig. 7 loop grows from
  int library_rounds = 2;    ///< iteration rounds after initial generation
  int library_samples = 24;  ///< samples per iteration round
  int expand_edge = 160;     ///< canvas edge of one timed expansion
  int check_edge = 96;       ///< canvas edge of the wavefront/sequential check
  double serve_rps = 5.0;    ///< open-loop arrival rate (phase A)
  int serve_inflight = 16;   ///< closed-loop concurrency (phase B)
  int serve_eval = 32;       ///< fixed evaluation requests (quality)
  int kernel_min_ms = 20;    ///< minimum timed span per conv measurement
};
Sizes sizes_for(bool quick);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  std::string work;  ///< directory holding the prepared checkpoints
  Sizes sizes;
};

/// The experiment geometry: 32 px clips under the advance rules halved.
pp::RuleSet bench_rules();
/// sd1 at clip 32 with the repository's quick-scale experiment counts.
pp::PatternPaintConfig model_config(bool quick);
/// Seed of the one-time training (and of the starters it finetunes on).
constexpr std::uint64_t kTrainSeed = 0xC0FFEE;
constexpr std::uint64_t kTrainStartersSeed = 20250704;
/// Seed of every workload's fixed evaluation input, which the quality
/// metric is measured on (see README, "Quality on a fixed input").
constexpr std::uint64_t kEvalSeed = 0xE7A1u;

std::string pretrained_path(const Options& o);
std::string finetuned_path(const Options& o);

/// n DR-clean starters from TrackPatternGenerator, a pure function of seed.
std::vector<pp::Raster> make_starters(int n, std::uint64_t seed);

/// A model loaded from a prepared checkpoint.
std::unique_ptr<pp::PatternPaint> load_model(const Options& o, bool finetuned,
                                             std::uint64_t seed);

/// One sampling call, so lazy state (pool, workspaces) exists before timing.
void warm_up(pp::PatternPaint& model);

/// FNV-1a, for comparing outputs of repeated operations.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n);
  void raster(const pp::Raster& r);
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
};

double median(std::vector<double> v);
double percentile(std::vector<double> v, double q);

/// DRC quality of a set of generated clips.
struct Quality {
  std::size_t clips = 0;
  std::size_t legal = 0;
  std::uint64_t violations = 0;
  std::vector<pp::Raster> legal_clips;
  void add(const pp::DrcChecker& checker, const pp::Raster& clip);
  double violations_per_clip() const;
  double legal_rate() const;
  double h2() const;  ///< H2 of the distinct legal clips
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports.
struct Outcome {
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;

  void metric(std::vector<Metric>& into, const std::string& name, double v,
              const std::string& unit) {
    into.push_back({name, v, unit});
  }
  /// Counts one checked operation; a false `ok` records a failure.
  void check(bool ok, const std::string& what);
};

/// Set-up repeated Sizes::setup_reps times, rep i pinned to CPU turn i;
/// returns the median seconds. `build` constructs the workload's ready
/// state from nothing each time; `reset`, untimed, tears the previous one
/// down first.
double timed_setup(const Options& o, const std::function<void()>& build,
                   const std::function<void()>& reset = {});

/// Seed-derived inputs: one Rng stream per purpose, so adding a purpose
/// never shifts another's values.
enum Purpose : std::uint64_t { kStarters = 1, kModelSeed = 2, kRequests = 3 };
std::uint64_t sub_seed(std::uint64_t seed, Purpose purpose);

// CPU placement. On a shared host the cores' speeds differed by up to a
// third at one moment, and the scheduler keeps a busy thread on the core it
// started on, so unpinned runs split into a fast and a slow group by the
// core they drew. The timed loops move their busy thread round the
// process's CPUs instead, so every run's median spans every core.

/// The CPUs the process may run on; main() reads them before any pinning.
const std::vector<int>& process_cpus();
/// Pins thread `tid` (0: the calling thread) to process_cpus()[turn mod n].
void pin_thread(pid_t tid, std::size_t turn);
/// Lets every thread of the process run on all of process_cpus() again.
void unpin_threads();
/// Runs fn() and returns the ids of the threads it started.
std::vector<pid_t> threads_started_by(const std::function<void()>& fn);

/// Runs op() at least `min_ops` times and until about `seconds` have
/// passed, op i pinned to CPU turn i. Returns each op's wall time in ms.
/// Each op runs inside a bench.op span.
std::vector<double> timed_ops(double seconds, int min_ops,
                              const std::function<void()>& op);

/// One traced window: tracing is on from start() to stop(). Counters are
/// read as deltas over the window; stop() collects the spans with their
/// self time (duration minus the direct children on the same thread).
class TraceWindow {
 public:
  struct Span {
    std::string name, parent;
    std::uint32_t tid = 0;
    int depth = 0;
    std::uint64_t start = 0, end = 0;
    double self_s = 0.0;
    double dur_s() const { return static_cast<double>(end - start) / 1e9; }
  };

  void start();
  void stop();
  double wall_s() const { return wall_s_; }
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t counter(const std::string& name) const;
  /// Sum of durations of spans named `name` (all threads).
  double span_total_s(const std::string& name) const;
  /// Top-level span time on the threads that recorded a span `name`.
  double busy_s_of_threads_with(const std::string& name) const;

 private:
  /// Counter values at start() and stop().
  std::vector<std::uint64_t> before_, after_;
  std::vector<Span> spans_;
  Clock::time_point t0_;
  std::uint64_t t0_ns_ = 0;
  double wall_s_ = 0.0;
};

/// What one workload run measured.
struct RunReport {
  double setup_s = 0.0, throughput = 0.0, latency_ms = 0.0;
  Quality quality;  ///< on the fixed evaluation input
  /// Traced runs: (UNet row x denoising step) evaluations in the window.
  double row_steps = 0.0;
  // Layer metrics only one workload produces; the others report 0, so every
  // traced run names every per-layer metric.
  // finetune
  double train_share = 0, forward_share = 0, backward_optim_share = 0;
  // expand
  double windows_per_wave = 0, seam_violations_per_window = 0;
  // serve
  double queue_share = 0, busy_share = 0, cache_hit_ratio = 0;
  double joins_per_request = 0, repacks_per_request = 0;
  double net_overhead_share = 0, gen_late_share = 0, p90_over_p50 = 0;
};

/// Appends the end-to-end metrics and, for a traced run (`tw` set), the
/// per-layer metrics.
void publish(const RunReport& r, const TraceWindow* tw, Outcome& out);

/// nn kernel phase: conv2d_forward GFLOP/s at every conv shape UNet::infer
/// runs for the model config, batch {1, 8} x precision {fp32, bf16, int8}.
void conv_kernel_phase(const Options& o, Outcome& out);

void run_finetune(const Options& o, Outcome& out);
void run_library(const Options& o, Outcome& out);
void run_expand(const Options& o, Outcome& out);
void run_serve(const Options& o, Outcome& out);

}  // namespace ppbench
