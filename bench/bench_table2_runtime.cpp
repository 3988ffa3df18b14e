// Table II reproduction: per-sample runtime of PatternPaint inpainting,
// PatternPaint template denoising, and DiffPattern's solver-based
// legalization.
//
// Expected shape (paper: 0.81s / 0.21s / 38.04s): denoising is the
// cheapest step by far, inpainting is sub-second-scale, and the nonlinear
// solver under industrial rules is one to two orders of magnitude slower
// than inpainting because failed restarts burn the whole budget.
#include <benchmark/benchmark.h>

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
#include "obs/metrics.hpp"
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

void BM_Inpainting(benchmark::State& state, const std::string& preset,
                   int size) {
  Rng rng(42);
  Raster starter(size, size);
  starter.fill_rect(Rect{size / 4, 0, size / 4 + size / 8, size}, 1);
  nn::Tensor known = raster_to_tensor(starter);
  Raster m(size, size);
  m.fill_rect(Rect{0, 0, size / 2, size / 2}, 1);
  nn::Tensor mask = mask_to_tensor(m);
  for (auto _ : state) {
    nn::Tensor out = model(preset).inpaint(known, mask, rng);
    benchmark::DoNotOptimize(out.data());
  }
}

void BM_TemplateDenoise(benchmark::State& state) {
  Rng rng(43);
  int size = clip_size();
  Raster tmpl(size, size);
  tmpl.fill_rect(Rect{6, 0, 9, size}, 1);
  tmpl.fill_rect(Rect{14, 0, 19, size}, 1);
  Raster noisy = tmpl;
  for (int y = 0; y < size; ++y)
    if (rng.bernoulli(0.3)) noisy(9, y) = 1;  // ragged right edge
  for (auto _ : state) {
    Raster out = template_denoise(noisy, tmpl, TemplateDenoiseConfig{}, rng);
    benchmark::DoNotOptimize(out.data().data());
  }
}

void BM_NlmDenoise(benchmark::State& state) {
  Rng rng(44);
  int size = clip_size();
  Raster noisy(size, size);
  for (auto& v : noisy.data()) v = rng.bernoulli(0.3);
  for (auto _ : state) {
    Raster out = nlm_denoise(noisy);
    benchmark::DoNotOptimize(out.data().data());
  }
}

void BM_DiffPatternSolver(benchmark::State& state) {
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
  for (auto _ : state) {
    SolveResult res = solver.legalize(topologies[i++ % topologies.size()], rng);
    benchmark::DoNotOptimize(res.success);
  }
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

/// The parallelized finish tail (template denoise + DRC per sample) as the
/// run report sees it: a batch of noisy samples fanned out over the shared
/// pool via PatternPaint::finish_samples. Prints the pool-job delta and the
/// pp.finish.par_chunks counter so the report shows the stage actually ran
/// parallel (pool.jobs > 0 when PP_THREADS > 1), and emits the batch wall
/// time for the perf trajectory.
void report_finish_stage() {
  using pp::bench::get_scale;
  try {
    auto starters = bench::starter_patterns(get_scale().starters);
    auto model = bench::make_model("sd1", true, starters);
    // Noisy raw samples: each starter with ragged-edge pixel flips, the
    // denoiser's real workload shape — no inpainting in the timed region.
    Rng rng(48);
    std::vector<Raster> raws, tmpls;
    for (int i = 0; i < 48; ++i) {
      const Raster& tmpl = starters[static_cast<std::size_t>(i) % starters.size()];
      Raster noisy = tmpl;
      for (int y = 0; y < noisy.height(); ++y)
        for (int x = 1; x + 1 < noisy.width(); ++x)
          if (noisy(x, y) != noisy(x + 1, y) && rng.bernoulli(0.3))
            noisy(x, y) = noisy(x, y) ? 0 : 1;
      raws.push_back(std::move(noisy));
      tmpls.push_back(tmpl);
    }
    std::uint64_t jobs_before = pool_stats().jobs;
    std::uint64_t chunks_before =
        obs::metrics().counter("pp.finish.par_chunks").value();
    model->finish_samples(raws, tmpls);  // warm-up
    Timer t;
    auto records = model->finish_samples(raws, tmpls);
    double ms = t.seconds() * 1e3;
    std::uint64_t jobs = pool_stats().jobs - jobs_before;
    std::uint64_t chunks =
        obs::metrics().counter("pp.finish.par_chunks").value() - chunks_before;
    std::printf("finish stage     : %zu samples in %.2f ms (%zu pool jobs, "
                "%llu chunks, %zu threads)\n",
                records.size(), ms, static_cast<std::size_t>(jobs),
                static_cast<unsigned long long>(chunks),
                parallel_thread_count());
    emit_json_summary("table2_finish_batch48", ms);
  } catch (const std::exception& e) {
    std::printf("finish stage     : skipped (%s)\n", e.what());
  }
}

/// Machine-readable perf trajectory: wall-time one inpaint call per size
/// with a fresh RNG, mirroring BM_Inpainting's setup.
void emit_inpaint_summaries() {
  for (int size : {32, 64}) {
    Rng rng(42);
    Raster starter(size, size);
    starter.fill_rect(Rect{size / 4, 0, size / 4 + size / 8, size}, 1);
    nn::Tensor known = raster_to_tensor(starter);
    Raster m(size, size);
    m.fill_rect(Rect{0, 0, size / 2, size / 2}, 1);
    nn::Tensor mask = mask_to_tensor(m);
    model("sd1").inpaint(known, mask, rng);  // warm-up
    Timer t;
    nn::Tensor out = model("sd1").inpaint(known, mask, rng);
    benchmark::DoNotOptimize(out.data());
    emit_json_summary("table2_inpaint_" + std::to_string(size) + "px",
                      t.seconds() * 1e3);
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
  DrcResult res = checker.check(den);
  benchmark::DoNotOptimize(res.clean());
  std::vector<std::size_t> sel = select_representatives(library, rc, rng);
  benchmark::DoNotOptimize(sel.data());
  double wall_ms = wall.seconds() * 1e3;

  double stage_ms = 0;
  for (const obs::SpanStat& s : obs::span_summary()) {
    if (s.name == "ddpm.inpaint" || s.name == "denoise.template" ||
        s.name == "drc.check" || s.name == "select.representatives")
      stage_ms += s.total_ms;
  }
  double coverage = wall_ms > 0 ? stage_ms / wall_ms : 0;
  obs::metrics().gauge("trace.pipeline_coverage").set(coverage);
  std::printf("traced pipeline  : wall %.2f ms, stage spans %.2f ms "
              "(%.1f%% covered) [%s]\n",
              wall_ms, stage_ms, coverage * 100,
              coverage >= 0.9 && coverage <= 1.1 ? "OK" : "DRIFT");
  emit_json_summary("table2_traced_pipeline", wall_ms);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::RegisterBenchmark(
      "Table2/PatternPaint_Inpainting_32px",
      [](benchmark::State& s) { BM_Inpainting(s, "sd1", 32); })
      ->Unit(benchmark::kMillisecond)->Iterations(3);
  benchmark::RegisterBenchmark(
      "Table2/PatternPaint_Inpainting_64px",
      [](benchmark::State& s) { BM_Inpainting(s, "sd1", 64); })
      ->Unit(benchmark::kMillisecond)->Iterations(2);
  benchmark::RegisterBenchmark("Table2/PatternPaint_Denoising",
                               BM_TemplateDenoise)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("Table2/OpenCVStyle_NLM_Denoise", BM_NlmDenoise)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("Table2/DiffPattern_SolverLegalization",
                               BM_DiffPatternSolver)
      ->Unit(benchmark::kMillisecond)->Iterations(3);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  report_cost_per_legal();
  report_finish_stage();
  emit_inpaint_summaries();
  run_traced_pipeline();
  finalize_observability("table2_runtime");
  return 0;
}
