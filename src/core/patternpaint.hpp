// The PatternPaint framework (Sec. IV, Fig. 4): the paper's primary
// contribution.
//
// Pipeline stages, each exposed individually so benchmarks can measure
// them (Tables I-III, Fig. 7) and applications can customize them:
//   (0) pretrain        — train the inpainting DDPM on a generic
//                         rectilinear corpus (stand-in for the pretrained
//                         image foundation model);
//   (1) finetune        — DreamBooth-style few-shot adaptation on ~20
//                         DR-clean starter patterns with prior preservation;
//   (2) initial_generation — n starters x 10 masks x v variations of
//                         localized inpainting;
//   (3) template denoising + DRC — every raw sample is denoised against its
//                         pre-inpainting template and sign-off checked;
//                         clean samples enter the pattern library;
//   (4) iterative_generation — PCA-based representative selection with a
//                         density constraint, sequential mask scheduling,
//                         repeat until the sample budget is exhausted.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "core/library.hpp"
#include "drc/checker.hpp"
#include "select/masks.hpp"

namespace pp {

/// One generated sample with its full provenance (used by Table III to
/// re-score raw samples under different denoisers).
struct GenerationRecord {
  Raster raw;        ///< model output before denoising
  Raster denoised;   ///< after template-based denoising
  Raster tmpl;       ///< the pre-inpainting template pattern
  bool legal = false;  ///< DRC verdict on `denoised`
  double wall_ms = 0.0;  ///< denoise + DRC time for this sample
};

/// Per-iteration library trajectory (Fig. 7 series).
struct IterationStats {
  int iteration = 0;
  std::size_t generated_total = 0;  ///< cumulative samples drawn
  std::size_t legal_total = 0;      ///< cumulative DR-clean samples
  std::size_t unique_total = 0;     ///< library size
  double h1 = 0.0;
  double h2 = 0.0;
  double wall_seconds = 0.0;   ///< wall time of this round (0 for cached)
  double drc_pass_rate = 0.0;  ///< cumulative legal_total / generated_total
};

class PatternPaint {
 public:
  PatternPaint(PatternPaintConfig cfg, RuleSet rules, std::uint64_t seed);

  const PatternPaintConfig& config() const { return cfg_; }
  const RuleSet& rules() const { return checker_.rules(); }
  Ddpm& model() { return model_; }
  const PatternLibrary& library() const { return library_; }

  /// Stage 0. Uses `cache_path` (when non-empty) to skip training if a
  /// compatible checkpoint exists, and to store the result otherwise.
  void pretrain(const std::string& cache_path = "");

  /// Stage 1. Finetunes on the starter patterns; also seeds the library
  /// with them. When `cache_path` is non-empty, caching works as above
  /// (the cache must come from the same starters to be meaningful).
  void finetune(const std::vector<Raster>& starters,
                const std::string& cache_path = "");

  /// Registers starters without finetuning (the "-base" model variants of
  /// Table I still need starters as inpainting templates).
  void set_starters(const std::vector<Raster>& starters);

  /// Stage 2+3: n starters x 10 masks x v variations, denoised + checked.
  /// Legal samples are added to the library. Returns every sample drawn.
  std::vector<GenerationRecord> initial_generation(int variations_per_mask);

  /// One iterative-generation round (Sec. IV-F): PCA-select representatives
  /// from the library, inpaint with each pattern's next scheduled mask,
  /// denoise, check, grow the library. Returns the round's records.
  std::vector<GenerationRecord> iteration_round(int samples);

  /// Full loop: initial generation + `iterations` rounds, recording the
  /// Fig. 7 trajectory. The first entry is the initial-generation point.
  std::vector<IterationStats> run(int iterations);

  /// Low-level primitive: inpaints `count` variations of one template with
  /// one mask (raw outputs, no denoising).
  std::vector<Raster> inpaint_variations(const Raster& tmpl, const Raster& mask,
                                         int count);

  /// Denoise + DRC one raw sample against its template.
  GenerationRecord finish_sample(const Raster& raw, const Raster& tmpl);

  /// Batch denoise + DRC, fanned out over the shared thread pool with one
  /// pre-derived RNG stream per sample; results come back in input order and
  /// are bitwise independent of PP_THREADS. Pure: does not touch the library
  /// or the cumulative counters (generate_for's merge step does that).
  std::vector<GenerationRecord> finish_samples(const std::vector<Raster>& raws,
                                               const std::vector<Raster>& tmpls);

  /// Explicit-stream variant: bases[i] is sample i's RNG stream base (what
  /// the overload above draws from the instance Rng). Const and pure — no
  /// library/counter/RNG mutation — so the serve layer can batch the finish
  /// tail of many independent requests through one shared model with
  /// per-request seeds, bitwise identical to finishing each request alone.
  std::vector<GenerationRecord> finish_samples(
      const std::vector<Raster>& raws, const std::vector<Raster>& tmpls,
      const std::vector<std::uint64_t>& bases) const;

  /// Cumulative counters across all generation calls.
  std::size_t total_generated() const { return total_generated_; }
  std::size_t total_legal() const { return total_legal_; }

 private:
  /// Inpaints counts[i] variations of each (template, mask) pair, then
  /// denoises + DRC-checks every sample in parallel (finish_samples) and
  /// merges records/library/counters serially in sample order.
  std::vector<GenerationRecord> generate_for(
      const std::vector<Raster>& templates, const std::vector<Raster>& masks,
      const std::vector<int>& counts);

  /// Denoise + DRC against `stream` only (no shared RNG): the parallel-safe
  /// core of finish_sample/finish_samples.
  GenerationRecord finish_one(const Raster& raw, const Raster& tmpl,
                              Rng& stream) const;

  PatternPaintConfig cfg_;
  DrcChecker checker_;
  Rng rng_;
  Ddpm model_;
  std::vector<Raster> starters_;
  std::vector<Raster> masks_;  ///< the 10 predefined masks
  PatternLibrary library_;
  std::size_t total_generated_ = 0;
  std::size_t total_legal_ = 0;
  /// Sequential mask schedule position per pattern, keyed by the pattern's
  /// library index (append-only, so a persistent identity — unlike a bare
  /// content hash, which can collide between distinct patterns).
  std::unordered_map<std::size_t, std::size_t> mask_cursor_;
  bool pretrained_ = false;
};

}  // namespace pp
