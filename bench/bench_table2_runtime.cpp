// Table II reproduction: per-sample runtime of PatternPaint inpainting,
// PatternPaint template denoising, and DiffPattern's solver-based
// legalization.
//
// Expected shape (paper: 0.81s / 0.21s / 38.04s): denoising is the
// cheapest step by far, inpainting is sub-second-scale, and the nonlinear
// solver under industrial rules is one to two orders of magnitude slower
// than inpainting because failed restarts burn the whole budget.
#include <cstdio>

#include "benchutil.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "core/patternpaint.hpp"
#include "common/rng.hpp"
#include "denoise/nlm.hpp"
#include "denoise/template_denoise.hpp"
#include "diffusion/convert.hpp"
#include "legalize/feasible_topology.hpp"
#include "legalize/solver.hpp"
#include "obs/trace.hpp"
#include "select/masks.hpp"
#include "select/representative.hpp"

namespace {

using namespace pp;
using namespace pp::bench;

/// Untrained model with the experiment architecture: runtime is independent
/// of the weights, so no checkpoint is needed.
Ddpm& model(const std::string& preset) {
  static Rng rng(1);
  static Ddpm sd1(experiment_config("sd1").ddpm, rng);
  static Ddpm sd2(experiment_config("sd2").ddpm, rng);
  return preset == "sd2" ? sd2 : sd1;
}

/// Runs `body` once untimed (lazy set-up, first-touch pages), then `iters`
/// times, and prints one Table II row: the case name, the iteration count
/// and the mean wall time per timed iteration in ms.
template <typename Body>
void time_case(const char* name, int iters, Body body) {
  body();
  Timer t;
  for (int i = 0; i < iters; ++i) body();
  std::printf("%-40s %6d %12.3f\n", name, iters, t.millis() / iters);
}

void time_inpainting(const char* name, const std::string& preset, int size,
                     int iters) {
  Rng rng(42);
  Raster starter(size, size);
  starter.fill_rect(Rect{size / 4, 0, size / 4 + size / 8, size}, 1);
  nn::Tensor known = raster_to_tensor(starter);
  Raster m(size, size);
  m.fill_rect(Rect{0, 0, size / 2, size / 2}, 1);
  nn::Tensor mask = mask_to_tensor(m);
  const Ddpm& ddpm = model(preset);
  time_case(name, iters, [&] { ddpm.inpaint(known, mask, rng); });
}

void time_template_denoise(int iters) {
  Rng rng(43);
  int size = clip_size();
  Raster tmpl(size, size);
  tmpl.fill_rect(Rect{6, 0, 9, size}, 1);
  tmpl.fill_rect(Rect{14, 0, 19, size}, 1);
  Raster noisy = tmpl;
  for (int y = 0; y < size; ++y)
    if (rng.bernoulli(0.3)) noisy(9, y) = 1;  // ragged right edge
  time_case("Table2/PatternPaint_Denoising", iters, [&] {
    template_denoise(noisy, tmpl, TemplateDenoiseConfig{}, rng);
  });
}

void time_nlm_denoise(int iters) {
  Rng rng(44);
  int size = clip_size();
  Raster noisy(size, size);
  for (auto& v : noisy.data()) v = rng.bernoulli(0.3);
  time_case("Table2/OpenCVStyle_NLM_Denoise", iters,
            [&] { nlm_denoise(noisy); });
}

void time_diffpattern_solver(int iters) {
  // Solver runtime per generated sample under the industrial rule set; the
  // topology pool is feasible by construction.
  Rng rng(45);
  std::vector<Raster> topologies;
  for (int i = 0; i < 4; ++i)
    topologies.push_back(
        make_feasible_topology(12, advance_rules(), rng).topology);
  SolverConfig cfg;
  cfg.max_restarts = 10;
  cfg.max_iterations = 300;
  NonlinearLegalizer solver(advance_rules(), cfg);
  std::size_t i = 0;
  time_case("Table2/DiffPattern_SolverLegalization", iters, [&] {
    solver.legalize(topologies[i++ % topologies.size()], rng);
  });
}

/// Table II's real production quantity: seconds of compute per LEGAL
/// pattern. Our penalty solver is much faster per attempt than the paper's
/// scipy at 1e8 iterations, so raw per-attempt time cannot match 38 s; the
/// collapse shows up as attempts-per-success instead. PatternPaint numbers
/// use the cached sd1-ft model (trained by bench_fig7/bench_table1).
void report_cost_per_legal() {
  using pp::bench::get_scale;
  std::printf("\n--- cost per LEGAL pattern (quick estimate) ---\n");
  Rng rng(46);
  // DiffPattern-style pipeline: solver on generated-scale topologies.
  {
    SolverConfig cfg;
    cfg.max_restarts = 6;
    cfg.max_iterations = 250;
    NonlinearLegalizer solver(bench::baseline_rules(), cfg);
    int attempts = 12, ok = 0;
    double secs = 0;
    for (int i = 0; i < attempts; ++i) {
      FeasibleTopology ft = make_feasible_topology(
          bench::baseline_topology_size() / 2, advance_rules(), rng);
      SolveResult res = solver.legalize(ft.topology, rng);
      ok += res.success;
      secs += res.seconds;
    }
    if (ok > 0)
      std::printf("solver pipeline  : %.2f s/legal (%d/%d attempts legal)\n",
                  secs / ok, ok, attempts);
    else
      std::printf("solver pipeline  : INF s/legal (0/%d attempts legal, "
                  "%.2f s burned)\n",
                  attempts, secs);
  }
  // PatternPaint pipeline with the cached finetuned model.
  try {
    auto starters = bench::starter_patterns(get_scale().starters);
    auto model = bench::make_model("sd1", true, starters);
    auto masks = all_masks(bench::clip_size(), bench::clip_size());
    Timer t;
    int attempts = 12, ok = 0;
    for (int i = 0; i < attempts; ++i) {
      auto raws = model->inpaint_variations(
          starters[static_cast<std::size_t>(i) % starters.size()],
          masks[static_cast<std::size_t>(i) % masks.size()], 1);
      ok += model->finish_sample(raws[0],
                                 starters[static_cast<std::size_t>(i) %
                                          starters.size()])
                .legal;
    }
    double secs = t.seconds();
    if (ok > 0)
      std::printf("PatternPaint-ft  : %.2f s/legal (%d/%d attempts legal)\n",
                  secs / ok, ok, attempts);
    else
      std::printf("PatternPaint-ft  : 0/%d legal in this tiny probe\n",
                  attempts);
  } catch (const std::exception& e) {
    std::printf("PatternPaint-ft  : skipped (%s)\n", e.what());
  }
}

/// PP_TRACE=1 extra: one traced pass over the full per-sample pipeline
/// (inpaint -> template denoise -> DRC -> representative selection) with a
/// fresh trace buffer, so the exported Chrome trace / span summary covers
/// exactly these stages. The sum of the top-level stage spans must explain
/// the end-to-end wall time of the pass (the glue between stages is only
/// tensor<->raster conversion).
void run_traced_pipeline() {
  if (!obs::trace_enabled()) return;

  // Prepare all inputs BEFORE the timed region: cache IO and raster
  // construction are not covered by stage spans.
  Rng rng(47);
  int size = clip_size();
  Raster starter(size, size);
  starter.fill_rect(Rect{size / 4, 0, size / 4 + size / 8, size}, 1);
  nn::Tensor known = raster_to_tensor(starter);
  Raster m(size, size);
  m.fill_rect(Rect{0, 0, size / 2, size / 2}, 1);
  nn::Tensor mask = mask_to_tensor(m);
  DrcChecker checker(experiment_rules());
  std::vector<Raster> library;
  for (int i = 0; i < 8; ++i) {
    Raster r(size, size);
    r.fill_rect(Rect{2 + 2 * i, 0, 5 + 2 * i, size}, 1);
    library.push_back(r);
  }
  RepresentativeConfig rc;
  rc.k = 4;
  model("sd1").inpaint(known, mask, rng);  // warm-up outside the trace

  obs::reset_trace();
  Timer wall;
  nn::Tensor out = model("sd1").inpaint(known, mask, rng);
  Raster raw = tensor_to_rasters(out)[0];
  Raster den = template_denoise(raw, starter, TemplateDenoiseConfig{}, rng);
  checker.check(den);
  select_representatives(library, rc, rng);
  double wall_ms = wall.seconds() * 1e3;

  double stage_ms = 0;
  for (const obs::SpanStat& s : obs::span_summary()) {
    if (s.name == "ddpm.inpaint" || s.name == "denoise.template" ||
        s.name == "drc.check" || s.name == "select.representatives")
      stage_ms += s.total_ms;
  }
  double coverage = wall_ms > 0 ? stage_ms / wall_ms : 0;
  std::printf("traced pipeline  : wall %.2f ms, stage spans %.2f ms "
              "(%.1f%% covered) [%s]\n",
              wall_ms, stage_ms, coverage * 100,
              coverage >= 0.9 && coverage <= 1.1 ? "OK" : "DRIFT");
}

}  // namespace

int main() {
  std::printf("--- Table II runtime (ms per iteration, pool width %zu) ---\n",
              parallel_thread_count());
  std::printf("%-40s %6s %12s\n", "case", "iters", "ms/iter");
  time_inpainting("Table2/PatternPaint_Inpainting_32px", "sd1", 32, 10);
  time_inpainting("Table2/PatternPaint_Inpainting_64px", "sd1", 64, 10);
  time_template_denoise(10000);
  time_nlm_denoise(50);
  time_diffpattern_solver(3);
  report_cost_per_legal();
  run_traced_pipeline();
  finalize_observability("table2_runtime");
  return 0;
}
