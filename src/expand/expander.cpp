#include "expand/expander.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "diffusion/convert.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pp::expand {

namespace {

struct ExpandMetrics {
  obs::Counter& windows = obs::metrics().counter("expand.windows");
  obs::Counter& waves = obs::metrics().counter("expand.waves");
  obs::Counter& seam_violations =
      obs::metrics().counter("expand.seam_violations");
};

ExpandMetrics& expand_metrics() {
  static ExpandMetrics* m = new ExpandMetrics;
  return *m;
}

}  // namespace

WavefrontExpander::WavefrontExpander(PatternPaint& painter, const Raster& seed,
                                     int target_w, int target_h,
                                     std::uint64_t request_seed,
                                     ExpandConfig cfg)
    : painter_(painter),
      cfg_(std::move(cfg)),
      plan_([&] {
        const int clip = painter.config().clip_size;
        const std::string problem = expand_request_problem(
            target_w, target_h, clip, seed.width(), seed.height());
        PP_REQUIRE_MSG(problem.empty(), problem);
        return make_expand_plan(target_w, target_h, clip);
      }()),
      canvas_(target_w, target_h),
      checker_(painter.rules()),
      request_seed_(request_seed) {
  canvas_.place_seed(seed);
  stats_.windows_total = static_cast<int>(plan_.windows.size());
  state_.assign(plan_.windows.size(), State::kPending);
  wave_remaining_ = 1;  // wave 0 is always the single window (0, 0)
  wave_start_ns_ = obs::trace_now_ns();
}

std::vector<WindowWork> WavefrontExpander::acquire(int max_windows) {
  std::vector<WindowWork> out;
  if (done()) return out;
  for (const ExpandWindow& w : plan_.windows) {
    if (w.wave != wave_) continue;
    if (max_windows > 0 && static_cast<int>(out.size()) >= max_windows) break;
    auto& st = state_[static_cast<std::size_t>(w.index)];
    if (st != State::kPending) continue;
    const Rect window{w.x0, w.y0, w.x0 + plan_.clip, w.y0 + plan_.clip};
    const Raster committed = canvas_.committed_crop(window);
    WindowWork work;
    work.win = w;
    work.known = canvas_.crop(window);
    work.mask = Raster(plan_.clip, plan_.clip);
    bool any_masked = false;
    for (int y = 0; y < plan_.clip; ++y)
      for (int x = 0; x < plan_.clip; ++x)
        if (!committed(x, y)) {
          work.mask(x, y) = 1;
          any_masked = true;
        }
    if (!any_masked) {
      // Fully pre-committed (e.g. the seed covers the whole first window):
      // nothing to generate, commit as a no-op.
      st = State::kCommitted;
      ++stats_.windows_skipped;
      mark_committed();
      continue;
    }
    Rng stream = Rng::stream(request_seed_, w.index);
    work.gen_base = stream.draw_seed();
    work.finish_base = stream.draw_seed();
    st = State::kAcquired;
    out.push_back(std::move(work));
  }
  return out;
}

void WavefrontExpander::commit_batch(const std::vector<WindowWork>& works,
                                     const std::vector<Raster>& raws) {
  PP_REQUIRE(works.size() == raws.size());
  if (works.empty()) return;
  if (!cfg_.denoise_windows) {
    for (std::size_t i = 0; i < works.size(); ++i)
      commit_finished(works[i], raws[i]);
    return;
  }
  std::vector<Raster> tmpls;
  std::vector<std::uint64_t> bases;
  tmpls.reserve(works.size());
  bases.reserve(works.size());
  for (const WindowWork& w : works) {
    tmpls.push_back(w.known);
    bases.push_back(w.finish_base);
  }
  const std::vector<GenerationRecord> recs =
      painter_.finish_samples(raws, tmpls, bases);
  for (std::size_t i = 0; i < works.size(); ++i)
    commit_finished(works[i], recs[i].denoised);
}

void WavefrontExpander::commit_finished(const WindowWork& work,
                                        const Raster& finished) {
  const ExpandWindow& w = work.win;
  auto& st = state_[static_cast<std::size_t>(w.index)];
  PP_REQUIRE_MSG(st == State::kAcquired,
                 "expand window committed without being acquired");
  PP_REQUIRE(finished.width() == plan_.clip &&
             finished.height() == plan_.clip);
  for (int y = 0; y < plan_.clip; ++y)
    for (int x = 0; x < plan_.clip; ++x)
      if (work.mask(x, y)) canvas_.commit(w.x0 + x, w.y0 + y, finished(x, y));
  ++stats_.windows_generated;
  expand_metrics().windows.add(1);

  const Rect window{w.x0, w.y0, w.x0 + plan_.clip, w.y0 + plan_.clip};
  const DrcResult drc = checker_.check(canvas_.crop(window));
  ++stats_.drc_checked;
  if (drc.clean()) ++stats_.drc_clean;
  stats_.total_violations += drc.violations.size();
  for (const Violation& v : drc.violations) {
    // A seam violation spans old and new content: its region holds at
    // least one previously-committed pixel and one fresh pixel.
    bool touches_old = false, touches_new = false;
    for (int y = std::max(0, v.region.y0);
         y < std::min(plan_.clip, v.region.y1); ++y)
      for (int x = std::max(0, v.region.x0);
           x < std::min(plan_.clip, v.region.x1); ++x)
        (work.mask(x, y) ? touches_new : touches_old) = true;
    if (touches_old && touches_new) {
      ++stats_.seam_violations;
      expand_metrics().seam_violations.add(1);
    }
  }

  st = State::kCommitted;
  mark_committed();
}

void WavefrontExpander::mark_committed() {
  ++committed_windows_;
  if (--wave_remaining_ > 0) return;

  // Wave drained: span + counter, advance to the next anti-diagonal.
  const std::uint64_t now_ns = obs::trace_now_ns();
  obs::record_span_with_corr("expand.wave", wave_start_ns_, now_ns,
                             static_cast<std::uint64_t>(wave_));
  wave_start_ns_ = now_ns;
  ++stats_.waves;
  expand_metrics().waves.add(1);
  ++wave_;
  wave_remaining_ = 0;
  for (const ExpandWindow& w : plan_.windows)
    if (w.wave == wave_) ++wave_remaining_;
}

Raster WavefrontExpander::take_canvas() const {
  PP_REQUIRE_MSG(done(), "expand canvas taken before every window committed");
  return canvas_.snapshot();
}

WindowBatch stack_windows(const std::vector<WindowWork>& works) {
  PP_REQUIRE(!works.empty());
  const int n = static_cast<int>(works.size());
  const int h = works.front().known.height(), w = works.front().known.width();
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  WindowBatch b{nn::Tensor({n, 1, h, w}), nn::Tensor({n, 1, h, w}), {}};
  b.bases.reserve(works.size());
  for (std::size_t i = 0; i < works.size(); ++i) {
    std::copy_n(raster_to_tensor(works[i].known).data(), plane,
                b.known.data() + i * plane);
    std::copy_n(mask_to_tensor(works[i].mask).data(), plane,
                b.mask.data() + i * plane);
    b.bases.push_back(works[i].gen_base);
  }
  return b;
}

ExpandResult expand_layout(PatternPaint& painter, const Raster& seed,
                           int target_w, int target_h,
                           std::uint64_t request_seed, const ExpandConfig& cfg,
                           int batch_limit) {
  PP_TRACE_SPAN("expand.layout");
  WavefrontExpander ex(painter, seed, target_w, target_h, request_seed, cfg);
  const Ddpm& model = painter.model();
  while (!ex.done()) {
    std::vector<WindowWork> works = ex.acquire(batch_limit);
    PP_REQUIRE_MSG(!works.empty() || ex.done(),
                   "expand wave stalled with windows in flight");
    if (works.empty()) continue;  // wave fully skipped, next wave is ready
    const WindowBatch in = stack_windows(works);
    const nn::Tensor out =
        model.inpaint(in.known, in.mask, in.bases, cfg.sampler);
    ex.commit_batch(works, tensor_to_rasters(out));
  }
  ExpandResult result;
  result.canvas = ex.take_canvas();
  result.stats = ex.stats();
  return result;
}

}  // namespace pp::expand
