#include "core/patternpaint.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "denoise/template_denoise.hpp"
#include "diffusion/convert.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "patterngen/random_clips.hpp"
#include "select/representative.hpp"

namespace pp {

PatternPaint::PatternPaint(PatternPaintConfig cfg, RuleSet rules,
                           std::uint64_t seed)
    : cfg_(cfg),
      checker_(std::move(rules)),
      rng_(seed),
      model_(cfg.ddpm, rng_),
      masks_(all_masks(cfg.clip_size, cfg.clip_size)) {
  cfg_.validate();
}

void PatternPaint::pretrain(const std::string& cache_path) {
  PP_TRACE_SPAN("pp.pretrain");
  if (!cache_path.empty() && model_.try_load(cache_path)) {
    PP_LOG(Info) << "pretrain: cache hit, skipping " << cfg_.pretrain_steps
                 << " steps";
    pretrained_ = true;
    return;
  }
  PP_LOG(Info) << "pretrain: " << cfg_.pretrain_steps << " steps, corpus "
               << cfg_.pretrain_corpus;
  // Rule-oblivious rectilinear corpus: the "image foundation" stand-in.
  std::vector<Raster> corpus = random_rectilinear_corpus(
      static_cast<std::size_t>(cfg_.pretrain_corpus), cfg_.clip_size,
      cfg_.clip_size, rng_);
  nn::Adam opt(model_.parameters(), cfg_.pretrain_lr);
  for (int step = 0; step < cfg_.pretrain_steps; ++step) {
    // Random batch with random box masks (25%-ish area) so the model learns
    // mask-conditioned completion; occasionally a full mask for
    // unconditional capability.
    std::vector<Raster> batch;
    nn::Tensor mask({cfg_.pretrain_batch, 1, cfg_.clip_size, cfg_.clip_size});
    for (int b = 0; b < cfg_.pretrain_batch; ++b) {
      batch.push_back(corpus[rng_.index(corpus.size())]);
      Raster m(cfg_.clip_size, cfg_.clip_size);
      if (rng_.bernoulli(0.15)) {
        m.fill_rect(m.bounds(), 1);
      } else {
        int mw = cfg_.clip_size / 2, mh = cfg_.clip_size / 2;
        int x = rng_.uniform_int(0, cfg_.clip_size - mw);
        int y = rng_.uniform_int(0, cfg_.clip_size - mh);
        m.fill_rect(Rect{x, y, x + mw, y + mh}, 1);
      }
      nn::Tensor mt = mask_to_tensor(m);
      std::copy_n(mt.data(), mt.numel(),
                  mask.data() + static_cast<std::size_t>(b) * mt.numel());
    }
    model_.train_step(rasters_to_tensor(batch), mask, opt, rng_);
  }
  pretrained_ = true;
  if (!cache_path.empty()) model_.save(cache_path);
}

void PatternPaint::set_starters(const std::vector<Raster>& starters) {
  PP_REQUIRE_MSG(!starters.empty(), "PatternPaint needs starter patterns");
  for (const auto& s : starters)
    PP_REQUIRE_MSG(s.width() == cfg_.clip_size && s.height() == cfg_.clip_size,
                   "starter size must match clip_size");
  starters_ = starters;
  library_.add_all(starters);
}

void PatternPaint::finetune(const std::vector<Raster>& starters,
                            const std::string& cache_path) {
  PP_TRACE_SPAN("pp.finetune");
  set_starters(starters);
  if (!cache_path.empty() && model_.try_load(cache_path)) {
    PP_LOG(Info) << "finetune: cache hit, skipping " << cfg_.finetune_steps
                 << " steps";
    return;
  }
  PP_REQUIRE_MSG(pretrained_, "finetune requires a pretrained model");
  PP_LOG(Info) << "finetune: " << cfg_.finetune_steps << " steps on "
               << starters.size() << " starters";

  // Prior-preservation set: samples from the PRE-finetuning model (the
  // "class images" of DreamBooth / Eq. 7).
  nn::Tensor prior = model_.sample(cfg_.prior_samples, cfg_.clip_size,
                                   cfg_.clip_size, rng_);
  nn::Tensor prior_mask = nn::Tensor::full(
      {cfg_.prior_samples, 1, cfg_.clip_size, cfg_.clip_size}, 1.0f);

  nn::Adam opt(model_.parameters(), cfg_.finetune_lr);
  for (int step = 0; step < cfg_.finetune_steps; ++step) {
    std::vector<Raster> batch;
    nn::Tensor mask({cfg_.finetune_batch, 1, cfg_.clip_size, cfg_.clip_size});
    for (int b = 0; b < cfg_.finetune_batch; ++b) {
      batch.push_back(starters_[rng_.index(starters_.size())]);
      // Mostly the predefined masks; occasionally a full mask so the model
      // keeps its unconditional capability during adaptation.
      const Raster& m = masks_[rng_.index(masks_.size())];
      nn::Tensor mt = rng_.bernoulli(0.2)
                          ? nn::Tensor::full({1, 1, cfg_.clip_size, cfg_.clip_size}, 1.0f)
                          : mask_to_tensor(m);
      std::copy_n(mt.data(), mt.numel(),
                  mask.data() + static_cast<std::size_t>(b) * mt.numel());
    }
    // Prior batch: random subset of the prior set.
    int pb = std::min(cfg_.finetune_batch, cfg_.prior_samples);
    nn::Tensor prior_batch({pb, 1, cfg_.clip_size, cfg_.clip_size});
    nn::Tensor prior_batch_mask({pb, 1, cfg_.clip_size, cfg_.clip_size});
    std::size_t plane =
        static_cast<std::size_t>(cfg_.clip_size) * cfg_.clip_size;
    for (int b = 0; b < pb; ++b) {
      std::size_t j = rng_.index(static_cast<std::size_t>(cfg_.prior_samples));
      std::copy_n(prior.data() + j * plane, plane,
                  prior_batch.data() + static_cast<std::size_t>(b) * plane);
      std::copy_n(prior_mask.data() + j * plane, plane,
                  prior_batch_mask.data() + static_cast<std::size_t>(b) * plane);
    }
    model_.finetune_step(rasters_to_tensor(batch), mask, prior_batch,
                         prior_batch_mask, cfg_.lambda_prior, opt, rng_);
  }
  if (!cache_path.empty()) model_.save(cache_path);
}

std::vector<Raster> PatternPaint::inpaint_variations(const Raster& tmpl,
                                                     const Raster& mask,
                                                     int count) {
  PP_REQUIRE(count >= 1);
  nn::Tensor known = repeat_batch(raster_to_tensor(tmpl), count);
  nn::Tensor mask_t = repeat_batch(mask_to_tensor(mask), count);
  nn::Tensor out = model_.inpaint(known, mask_t, rng_);
  return tensor_to_rasters(out);
}

GenerationRecord PatternPaint::finish_one(const Raster& raw,
                                          const Raster& tmpl,
                                          Rng& stream) const {
  Timer t;
  GenerationRecord rec;
  rec.raw = raw;
  rec.tmpl = tmpl;
  rec.denoised = template_denoise(raw, tmpl, cfg_.denoise, stream);
  rec.legal = rec.denoised.count_ones() > 0 && checker_.is_clean(rec.denoised);
  rec.wall_ms = t.millis();
  return rec;
}

GenerationRecord PatternPaint::finish_sample(const Raster& raw,
                                             const Raster& tmpl) {
  Rng stream = Rng::stream(rng_.draw_seed(), 0);
  return finish_one(raw, tmpl, stream);
}

std::vector<GenerationRecord> PatternPaint::finish_samples(
    const std::vector<Raster>& raws, const std::vector<Raster>& tmpls) {
  // Stream bases are drawn serially, in sample order, BEFORE the fan-out:
  // the parallel region then only reads per-sample state and writes
  // disjoint slots, so the records are bitwise independent of PP_THREADS.
  std::vector<std::uint64_t> bases(raws.size());
  for (auto& b : bases) b = rng_.draw_seed();
  return finish_samples(raws, tmpls, bases);
}

std::vector<GenerationRecord> PatternPaint::finish_samples(
    const std::vector<Raster>& raws, const std::vector<Raster>& tmpls,
    const std::vector<std::uint64_t>& bases) const {
  PP_TRACE_SPAN("pp.finish");
  PP_REQUIRE(raws.size() == tmpls.size() && raws.size() == bases.size());
  std::vector<GenerationRecord> records(raws.size());
  parallel_for_chunks(0, raws.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t j = lo; j < hi; ++j) {
      Rng stream = Rng::stream(bases[j], 0);
      records[j] = finish_one(raws[j], tmpls[j], stream);
    }
  });
  return records;
}

std::vector<GenerationRecord> PatternPaint::generate_for(
    const std::vector<Raster>& templates, const std::vector<Raster>& masks,
    const std::vector<int>& counts) {
  PP_REQUIRE(templates.size() == masks.size() &&
             templates.size() == counts.size());
  // Stage 1 (serial): inpaint every pair, collecting the flat sample list.
  std::vector<Raster> raws, tmpl_of;
  for (std::size_t i = 0; i < templates.size(); ++i) {
    if (counts[i] <= 0) continue;
    std::vector<Raster> batch =
        inpaint_variations(templates[i], masks[i], counts[i]);
    for (Raster& raw : batch) {
      raws.push_back(std::move(raw));
      tmpl_of.push_back(templates[i]);
    }
  }

  // Stage 2 (parallel): denoise + DRC with per-sample streams.
  std::vector<GenerationRecord> records = finish_samples(raws, tmpl_of);

  // Stage 3 (serial merge, deterministic sample order): counters + library.
  for (const GenerationRecord& rec : records) {
    ++total_generated_;
    if (rec.legal) {
      ++total_legal_;
      library_.add(rec.denoised);
    }
  }
  return records;
}

std::vector<GenerationRecord> PatternPaint::initial_generation(
    int variations_per_mask) {
  PP_TRACE_SPAN("pp.initial_generation");
  PP_REQUIRE_MSG(!starters_.empty(),
                 "initial_generation requires starters (finetune or "
                 "set_starters first)");
  std::vector<Raster> templates, masks;
  for (const auto& s : starters_)
    for (const auto& m : masks_) {
      templates.push_back(s);
      masks.push_back(m);
    }
  std::vector<int> counts(templates.size(), variations_per_mask);
  return generate_for(templates, masks, counts);
}

std::vector<GenerationRecord> PatternPaint::iteration_round(int samples) {
  PP_TRACE_SPAN("pp.iteration_round");
  PP_REQUIRE_MSG(!library_.empty(), "iteration_round on an empty library");
  PP_REQUIRE(samples >= 1);
  RepresentativeConfig rc;
  rc.k = cfg_.representatives;
  rc.explained_variance = 0.9;
  rc.max_density = cfg_.max_density;
  std::vector<std::size_t> sel =
      select_representatives(library_.clips(), rc, rng_);
  PP_REQUIRE(!sel.empty());

  // Exact sample budget: base count per representative plus the remainder
  // spread over the first `samples % sel.size()` of them, so inexact
  // division no longer undershoots cfg_.samples_per_iteration.
  int base = samples / static_cast<int>(sel.size());
  int rem = samples % static_cast<int>(sel.size());
  std::vector<Raster> templates, masks;
  std::vector<int> counts;
  for (std::size_t i = 0; i < sel.size(); ++i) {
    int count = base + (static_cast<int>(i) < rem ? 1 : 0);
    if (count == 0) continue;  // samples < sel.size(): surplus reps sit out
    std::size_t idx = sel[i];
    // Sequential mask schedule keyed by pattern identity — the stable
    // library index, not the (collidable) content hash (Sec. IV-E2).
    std::size_t& cursor = mask_cursor_[idx];
    templates.push_back(library_.clips()[idx]);
    masks.push_back(masks_[cursor % masks_.size()]);
    counts.push_back(count);
    ++cursor;
  }
  return generate_for(templates, masks, counts);
}

std::vector<IterationStats> PatternPaint::run(int iterations) {
  std::vector<IterationStats> trajectory;
  auto record_point = [&](int iteration, double wall_seconds) {
    LibraryStats s = library_.stats();
    IterationStats st{iteration, total_generated_, total_legal_, s.unique,
                      s.h1,      s.h2,             wall_seconds,  0.0};
    st.drc_pass_rate = total_generated_ == 0
                           ? 0.0
                           : static_cast<double>(total_legal_) /
                                 static_cast<double>(total_generated_);
    PP_LOG(Debug) << "run: iteration " << iteration << " library "
                  << st.unique_total << " pass-rate " << st.drc_pass_rate;
    trajectory.push_back(st);
  };
  Timer t;
  initial_generation(cfg_.variations_per_mask);
  record_point(0, t.seconds());
  for (int it = 1; it <= iterations; ++it) {
    t.reset();
    iteration_round(cfg_.samples_per_iteration);
    record_point(it, t.seconds());
  }
  return trajectory;
}

}  // namespace pp
