// Shared infrastructure for the experiment benchmarks (EXPERIMENTS.md).
//
// All benchmarks run CPU-scale versions of the paper's experiments:
//   * clips are 32 x 32 px with the advance rule set scaled down 2x
//     (geometrically a 64 x 64 nm clip at 2nm pixel pitch);
//   * model/denoiser/solver work is identical in kind to the paper's,
//     only counts are reduced;
//   * PP_SCALE=full raises the counts (closer to paper ratios),
//     PP_SCALE=quick (default) keeps every bench in the minutes range on
//     one core;
//   * trained models, starter sets and generation trajectories are cached
//     under PP_CACHE_DIR (default ./pp_cache) so reruns and dependent
//     benches are fast. Delete the directory to retrain from scratch.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/patternpaint.hpp"
#include "drc/rules.hpp"
#include "geometry/raster.hpp"

namespace pp::bench {

struct Scale {
  bool full = false;
  int starters = 10;               ///< paper: 20
  int variations = 1;              ///< v, paper: 100 per mask
  int iterations = 3;              ///< paper: 6
  int samples_per_iteration = 36;  ///< paper: 5000
  int table3_samples = 60;         ///< raw samples per model config
  std::vector<int> fig9_sizes = {6, 12, 18, 24};
  int fig9_trials = 6;
  int baseline_corpus = 200;       ///< paper: 1000 commercial-tool samples
  int baseline_samples = 60;       ///< paper: 20000 generated
  int baseline_train_steps = 300;
};

/// Reads PP_SCALE (quick|full) from the environment.
Scale get_scale();

/// PP_CACHE_DIR or ./pp_cache; created on first call.
std::string cache_dir();

/// Results directory (./results), created on first call.
std::string results_dir();

/// Experiment geometry: 32px clips under the half-scaled advance rule set.
int clip_size();
RuleSet experiment_rules();

/// Deterministic DR-clean starter patterns, cached as a pattern library.
std::vector<Raster> starter_patterns(int n);

/// Rule-based corpus standing in for the 1000 commercial-tool samples used
/// to train the baselines. NOTE: the squish-based baselines run at the
/// node's NATIVE pixel pitch (64px clips under the full advance rule set —
/// geometrically the same node as the 32px/halved-rule PatternPaint side,
/// see Rules.ScaledRulesGeometricallyConsistent), because their topology
/// richness and the solver difficulty live at that scale.
std::vector<Raster> baseline_corpus(int n);
int baseline_clip_size();          ///< 128 (paper: 512)
RuleSet baseline_rules();          ///< advance_rules() at native pitch
int baseline_topology_size();      ///< 32 (paper: 128)

/// A PatternPaint instance for preset "sd1"/"sd2", pretrained (cached) and
/// optionally finetuned (cached), with the starters registered either way.
std::unique_ptr<PatternPaint> make_model(const std::string& preset,
                                         bool finetuned,
                                         const std::vector<Raster>& starters);

/// Config used by make_model (exposed for the runtime benchmarks).
PatternPaintConfig experiment_config(const std::string& preset);

/// Model-config display names, Table I style.
std::string config_label(const std::string& preset, bool finetuned);

/// Full generation trajectory (initial generation + Scale::iterations
/// rounds) for one model config. Cached: re-running (or another bench
/// calling with the same config) loads the recorded trajectory + final
/// library instead of regenerating.
struct Trajectory {
  std::vector<IterationStats> points;  ///< [0] = after initial generation
  std::vector<Raster> library;         ///< final library contents
};
Trajectory run_trajectory(const std::string& preset, bool finetuned);

/// Prints a single-line machine-readable summary to stdout:
///   {"bench": "<name>", "ms": <value>}
/// One line per tracked quantity so the perf trajectory can be scraped
/// across PRs (grep '^{"bench"').
void emit_json_summary(const std::string& bench, double ms);

/// Kernel-bench variant that also records arithmetic throughput and the
/// kernel ISA the measurement ran under:
///   {"bench": "<name>", "ms": ..., "gflops": ..., "isa": "scalar|avx2|avx512"}
void emit_json_summary(const std::string& bench, double ms, double gflops,
                       const std::string& isa);

/// General variant with extra numeric fields appended in order, e.g.
///   {"bench": "expand_ab", "ms": ..., "sequential_ms": ..., "speedup": ...}
/// Extra fields must stay scalar (scripts/check_bench_json.py enforces it).
void emit_json_summary(
    const std::string& bench, double ms,
    const std::vector<std::pair<std::string, double>>& extras);

/// Writes the observability artifacts for one bench run and returns the
/// run-report path:
///   * run report  -> PP_REPORT_FILE or results/run_report_<tool>.json
/// and, when tracing is on (PP_TRACE=1):
///   * Chrome trace -> PP_TRACE_FILE or results/trace_<tool>.json
///   * span summary -> results/spans_<tool>.jsonl
/// Call once at the end of main(), after all measured work.
std::string finalize_observability(const std::string& tool);

}  // namespace pp::bench
