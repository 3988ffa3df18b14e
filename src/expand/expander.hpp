// Wavefront expansion engine: grows a seed clip to an arbitrary W x H
// canvas by scheduling the plan's windows in anti-diagonal waves.
//
// The engine is schedule-agnostic on purpose: acquire() hands out the
// current wave's independent windows (each with its pre-inpaint template,
// uncommitted-pixel mask and RNG stream bases) and commit_batch() folds
// generated windows back in. Two drivers share it bitwise-identically:
//   * expand_layout() — the in-process loop (examples, CLI, bench):
//     acquires a batch, runs one Ddpm::inpaint call, commits the batch.
//   * the serve executor — wave windows join the continuous-batching
//     InpaintState at step boundaries and commit one by one as they
//     finish.
//
// Determinism contract: window w's generation base and finish base are
//   Rng s = Rng::stream(request_seed, w.index);
//   gen_base = s.draw_seed(); finish_base = s.draw_seed();
// — pure functions of (request seed, plan index). Combined with the plan's
// disjoint-commit invariant and Ddpm's per-sample stream purity, the
// committed canvas is bitwise identical for any wave width, batch
// interleaving or PP_THREADS.
//
// Seam handling: each committed window is template-denoised against its
// pre-inpaint content (the committed overlap conditions the denoiser), then
// the window's canvas crop is DRC-checked. Violations whose region spans
// both committed-before and freshly-generated pixels are counted as SEAM
// violations (expand.seam_violations) separately from total window
// violations; border-touching runs are exempt inside the checker, so a
// window check never flags geometry that simply continues into a
// neighbouring window.
#pragma once

#include <cstdint>
#include <vector>

#include "core/patternpaint.hpp"
#include "diffusion/ddpm.hpp"
#include "expand/canvas.hpp"
#include "expand/plan.hpp"

namespace pp::expand {

struct ExpandConfig {
  /// Template-denoise each window against its pre-inpaint content.
  bool denoise_windows = true;
  /// Per-request sampler schedule (0 / -1 = model defaults).
  SamplerParams sampler{};
};

/// Cumulative progress/quality counters of one expansion.
struct ExpandStats {
  int windows_total = 0;      ///< windows in the plan
  int windows_generated = 0;  ///< windows that ran the model
  int windows_skipped = 0;    ///< fully pre-committed windows (no-op)
  int waves = 0;              ///< waves completed
  int drc_checked = 0;
  int drc_clean = 0;
  std::uint64_t total_violations = 0;
  std::uint64_t seam_violations = 0;

  double drc_pass_rate() const {
    return drc_checked > 0 ? static_cast<double>(drc_clean) / drc_checked
                           : 1.0;
  }
};

/// One acquired window: everything a driver needs to generate it.
struct WindowWork {
  ExpandWindow win;
  Raster known;  ///< pre-inpaint window content (denoise template)
  Raster mask;   ///< 1 = uncommitted pixel to generate
  std::uint64_t gen_base = 0;     ///< Ddpm stream base
  std::uint64_t finish_base = 0;  ///< finish_samples stream base
};

/// Model inputs of a window batch, row i = works[i]: known {N,1,clip,clip}
/// in [-1,1], mask {N,1,clip,clip} in {0,1}, one generation base per row.
struct WindowBatch {
  nn::Tensor known, mask;
  std::vector<std::uint64_t> bases;
};

/// Stacks acquired windows for Ddpm::inpaint / Ddpm::join (non-empty).
WindowBatch stack_windows(const std::vector<WindowWork>& works);

class WavefrontExpander {
 public:
  /// Validates via expand_request_problem (throws pp::Error) and builds the
  /// plan. `painter` must outlive the expander; only const/pure entry
  /// points (finish_samples, rules, config) are used after construction.
  WavefrontExpander(PatternPaint& painter, const Raster& seed,
                    int target_w, int target_h, std::uint64_t request_seed,
                    ExpandConfig cfg = {});

  const ExpandPlan& plan() const { return plan_; }
  const ExpandStats& stats() const { return stats_; }
  const ExpandCanvas& canvas() const { return canvas_; }

  /// All windows committed.
  bool done() const { return committed_windows_ == stats_.windows_total; }

  /// Hands out up to `max_windows` (0 = no cap) un-acquired windows of the
  /// current wave. Windows with no uncommitted pixels commit instantly as
  /// no-ops and are not returned. An empty result with !done() means every
  /// remaining window of the wave is in flight — commit them to advance.
  std::vector<WindowWork> acquire(int max_windows = 0);

  /// Folds generated windows back in: one finish_samples call
  /// template-denoises every raw against its work.known (when configured;
  /// bitwise identical per sample at any batch size), then, in order, each
  /// window commits exactly its masked pixels, DRCs its committed crop and
  /// updates the stats, and a drained wave advances the wavefront.
  void commit_batch(const std::vector<WindowWork>& works,
                    const std::vector<Raster>& raws);

  /// Final canvas (requires every window committed).
  Raster take_canvas() const;

 private:
  enum class State : std::uint8_t { kPending, kAcquired, kCommitted };

  void commit_finished(const WindowWork& work, const Raster& finished);
  void mark_committed();

  PatternPaint& painter_;
  ExpandConfig cfg_;
  ExpandPlan plan_;
  ExpandCanvas canvas_;
  DrcChecker checker_;
  std::uint64_t request_seed_ = 0;
  ExpandStats stats_;
  std::vector<State> state_;
  int wave_ = 0;
  int wave_remaining_ = 0;  ///< uncommitted windows of the current wave
  int committed_windows_ = 0;
  std::uint64_t wave_start_ns_ = 0;
};

/// Result of a full in-process expansion.
struct ExpandResult {
  Raster canvas;
  ExpandStats stats;
};

/// Runs a whole expansion in-process. The seed is placed top-left and the
/// target must be at least one clip on each edge, the seed at most one clip
/// (throws pp::Error otherwise).
/// `batch_limit` caps how many windows feed one Ddpm::inpaint call: 0 =
/// whole waves (wavefront execution), 1 = strictly sequential, one window
/// per model call in row-major wave order. Every limit produces a
/// bitwise-identical canvas.
ExpandResult expand_layout(PatternPaint& painter, const Raster& seed,
                           int target_w, int target_h,
                           std::uint64_t request_seed,
                           const ExpandConfig& cfg = {}, int batch_limit = 0);

}  // namespace pp::expand
