// The three in-process workloads: finetune, library and expand.
//
// Each run: set-up (repeated, median reported as setup_s), one operation on
// the fixed evaluation input (the quality metric and the output checks),
// then the timed loop of operations on the --seed input, which repeats one
// input so every repeat must produce the same bits.
#include <algorithm>

#include "expand/expander.hpp"
#include "nn/autograd.hpp"
#include "ppbench.hpp"
#include "select/masks.hpp"

namespace ppbench {

using namespace pp;

namespace {

/// What one timed operation produced: a digest of its output, which every
/// repeat must reproduce, and its work in throughput units.
struct OpResult {
  std::uint64_t digest = 0;
  double work = 0.0;
};

/// The timed loop (traced when o.trace): fills throughput and latency and
/// checks each repeat's digest against the first.
void measure(const Options& o, const char* what,
             const std::function<OpResult()>& op, TraceWindow& tw,
             RunReport& r, Outcome& out) {
  std::vector<OpResult> results;
  if (o.trace) tw.start();
  const std::vector<double> op_ms =
      timed_ops(o.seconds, 2, [&] { results.push_back(op()); });
  if (o.trace) tw.stop();
  // Medians over the ops, so a burst of load from outside the process
  // moves them less than it moves a total.
  std::vector<double> rates;
  for (std::size_t i = 0; i < results.size(); ++i) {
    rates.push_back(results[i].work / (op_ms[i] / 1e3));
    out.check(results[i].digest == results[0].digest,
              std::string(what) + ": repeat " + std::to_string(i) +
                  " differs from repeat 0");
  }
  r.throughput = median(rates);
  r.latency_ms = median(op_ms);
}

/// Row-steps of a window whose sampling all ran at the default step count.
double default_row_steps(const TraceWindow& tw, const PatternPaint& model) {
  return static_cast<double>(tw.counter("ddpm.inpaint.samples")) *
         model.config().ddpm.sample_steps;
}

std::uint64_t params_digest(PatternPaint& model) {
  Digest d;
  for (const nn::Var& p : model.model().parameters())
    d.bytes(p->value.data(), p->value.numel() * sizeof(float));
  return d.h;
}

}  // namespace

void run_finetune(const Options& o, Outcome& out) {
  const Sizes& s = o.sizes;
  std::vector<Raster> starters;
  std::unique_ptr<PatternPaint> model;
  RunReport r;
  r.setup_s = timed_setup(o, [&] {
    starters = make_starters(s.starters, sub_seed(o.seed, kStarters));
    model = load_model(o, /*finetuned=*/false, sub_seed(o.seed, kModelSeed));
    warm_up(*model);
  });

  // Evaluation: adapt the pretrained model to the fixed starters, then
  // generate a probe from it (the paper's Table I quantity).
  {
    const std::vector<Raster> eval = make_starters(s.starters, kEvalSeed);
    auto m = load_model(o, false, kEvalSeed);
    m->finetune(eval);
    const DrcChecker checker(bench_rules());
    const std::vector<Raster> masks = all_masks(32, 32);
    for (std::size_t i = 0; i < eval.size(); ++i) {
      const std::vector<Raster> raws = m->inpaint_variations(
          eval[i], masks[i % masks.size()], s.probe_per_starter);
      for (const GenerationRecord& rec :
           m->finish_samples(raws, std::vector<Raster>(raws.size(), eval[i])))
        r.quality.add(checker, rec.denoised);
    }
  }

  TraceWindow tw;
  measure(o, "finetune weights", [&] {
    auto m = load_model(o, false, sub_seed(o.seed, kModelSeed));
    m->finetune(starters);
    return OpResult{params_digest(*m), static_cast<double>(s.finetune_steps)};
  }, tw, r, out);
  if (o.trace) {
    // The window's sampling is finetune()'s prior-preservation draw.
    r.row_steps = default_row_steps(tw, *model);
    const double step_s = tw.span_total_s("ddpm.finetune_step");
    const double fwd_s = tw.span_total_s("unet.forward");
    r.train_share = step_s / tw.wall_s();
    r.forward_share = step_s > 0 ? fwd_s / step_s : 0.0;
    r.backward_optim_share = (step_s - fwd_s) / tw.wall_s();
  }
  publish(r, o.trace ? &tw : nullptr, out);
}

namespace {

struct LibraryRun {
  OpResult op;  ///< digest of the library, counts and H2; samples drawn
  std::vector<GenerationRecord> records;  ///< every sample
};

/// One Fig. 7 loop from fresh state: initial generation over the templates,
/// then Sizes::library_rounds iteration rounds, sharing `base`'s weights.
LibraryRun library_loop(const PatternPaint& base,
                        const std::vector<Raster>& templates, const Sizes& s) {
  PatternPaint session = base;  // fresh library and counters, shared weights
  session.set_starters(templates);
  LibraryRun run;
  run.records =
      session.initial_generation(session.config().variations_per_mask);
  for (int i = 0; i < s.library_rounds; ++i) {
    const std::vector<GenerationRecord> round =
        session.iteration_round(s.library_samples);
    run.records.insert(run.records.end(), round.begin(), round.end());
  }
  const LibraryStats st = session.library().stats();  // the Fig. 7 point
  Digest d;
  d.u64(session.total_legal());
  d.u64(st.unique);
  d.bytes(&st.h2, sizeof st.h2);
  for (const Raster& clip : session.library().clips()) d.raster(clip);
  run.op = {d.h, static_cast<double>(session.total_generated())};
  return run;
}

}  // namespace

void run_library(const Options& o, Outcome& out) {
  const Sizes& s = o.sizes;
  std::vector<Raster> templates;
  std::unique_ptr<PatternPaint> model;
  RunReport r;
  r.setup_s = timed_setup(o, [&] {
    templates = make_starters(s.starters, sub_seed(o.seed, kStarters));
    templates.resize(static_cast<std::size_t>(s.library_templates));
    model = load_model(o, /*finetuned=*/true, sub_seed(o.seed, kModelSeed));
    warm_up(*model);
  });

  {
    std::vector<Raster> eval = make_starters(s.starters, kEvalSeed);
    eval.resize(static_cast<std::size_t>(s.library_templates));
    const DrcChecker checker(bench_rules());
    const auto m = load_model(o, /*finetuned=*/true, kEvalSeed);
    const LibraryRun run = library_loop(*m, eval, s);
    for (const GenerationRecord& rec : run.records)
      r.quality.add(checker, rec.denoised);
  }

  TraceWindow tw;
  measure(o, "library contents",
          [&] { return library_loop(*model, templates, s).op; }, tw, r, out);
  if (o.trace) r.row_steps = default_row_steps(tw, *model);
  publish(r, o.trace ? &tw : nullptr, out);
}

void run_expand(const Options& o, Outcome& out) {
  const Sizes& s = o.sizes;
  Raster seed_clip;
  std::uint64_t canvas_seed = 0;
  std::unique_ptr<PatternPaint> model;
  RunReport r;
  r.setup_s = timed_setup(o, [&] {
    seed_clip = make_starters(s.starters, sub_seed(o.seed, kStarters)).front();
    canvas_seed = sub_seed(o.seed, kRequests);
    model = load_model(o, /*finetuned=*/true, sub_seed(o.seed, kModelSeed));
    warm_up(*model);
  });

  // Evaluation canvas, grown twice: wavefront batches (batch_limit 0) and
  // one window per model call (batch_limit 1) must commit the same canvas.
  // Quality: every plan window of the final canvas, checked as a clip.
  const Raster eval_seed = make_starters(s.starters, kEvalSeed).front();
  const expand::ExpandResult wave = expand::expand_layout(
      *model, eval_seed, s.check_edge, s.check_edge, kEvalSeed, {}, 0);
  const expand::ExpandResult seq = expand::expand_layout(
      *model, eval_seed, s.check_edge, s.check_edge, kEvalSeed, {}, 1);
  out.check(wave.canvas == seq.canvas,
            "expand: wavefront and sequential canvases differ");
  {
    const int clip = model->config().clip_size;
    const DrcChecker checker(bench_rules());
    for (const expand::ExpandWindow& w :
         expand::make_expand_plan(s.check_edge, s.check_edge, clip).windows)
      r.quality.add(checker, wave.canvas.crop(
                                 Rect{w.x0, w.y0, w.x0 + clip, w.y0 + clip}));
  }

  TraceWindow tw;
  measure(o, "expand canvas", [&] {
    const expand::ExpandResult res = expand::expand_layout(
        *model, seed_clip, s.expand_edge, s.expand_edge, canvas_seed);
    Digest d;
    d.raster(res.canvas);
    d.u64(res.stats.seam_violations);
    return OpResult{d.h, static_cast<double>(res.stats.windows_generated)};
  }, tw, r, out);
  if (o.trace) {
    r.row_steps = default_row_steps(tw, *model);
    const double waves = static_cast<double>(tw.counter("expand.waves"));
    const double windows = static_cast<double>(tw.counter("expand.windows"));
    r.windows_per_wave = waves > 0 ? windows / waves : 0.0;
    r.seam_violations_per_window =
        static_cast<double>(wave.stats.seam_violations) /
        std::max(1, wave.stats.windows_generated);
  }
  publish(r, o.trace ? &tw : nullptr, out);
}

}  // namespace ppbench
