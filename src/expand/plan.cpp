#include "expand/plan.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pp::expand {

namespace {

/// Window origins covering [0, total) with stride `step`, final window
/// clamped flush to the end.
std::vector<int> window_origins(int total, int window, int step) {
  std::vector<int> xs;
  for (int x = 0; x + window < total; x += step) xs.push_back(x);
  xs.push_back(total - window);
  // Clamping can duplicate the last origin.
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  return xs;
}

}  // namespace

std::string expand_request_problem(int target_w, int target_h, int clip,
                                   int seed_w, int seed_h) {
  if (target_w <= 0 || target_h <= 0)
    return "expand target dimensions must be positive (got " +
           std::to_string(target_w) + "x" + std::to_string(target_h) + ")";
  if (target_w > kMaxCanvasEdge || target_h > kMaxCanvasEdge)
    return "expand target edge must be at most " +
           std::to_string(kMaxCanvasEdge) + " (got " +
           std::to_string(target_w) + "x" + std::to_string(target_h) + ")";
  if (target_w < clip || target_h < clip)
    return "expand target must be at least the clip size (" +
           std::to_string(clip) + "x" + std::to_string(clip) + ")";
  if (seed_w > clip || seed_h > clip)
    return "expand seed must fit one clip window (" + std::to_string(clip) +
           "x" + std::to_string(clip) + ", got " + std::to_string(seed_w) +
           "x" + std::to_string(seed_h) + ")";
  return "";
}

ExpandPlan make_expand_plan(int target_w, int target_h, int clip) {
  PP_REQUIRE_MSG(clip > 0, "expand clip size must be positive");
  const std::string problem =
      expand_request_problem(target_w, target_h, clip, 0, 0);
  PP_REQUIRE_MSG(problem.empty(), problem);

  ExpandPlan plan;
  plan.target_w = target_w;
  plan.target_h = target_h;
  plan.clip = clip;
  plan.stride = std::max(4, clip / 2);
  plan.xs = window_origins(target_w, clip, plan.stride);
  plan.ys = window_origins(target_h, clip, plan.stride);
  plan.nx = static_cast<int>(plan.xs.size());
  plan.ny = static_cast<int>(plan.ys.size());
  plan.windows.reserve(static_cast<std::size_t>(plan.nx) * plan.ny);
  plan.deps.reserve(plan.windows.capacity());
  for (int iy = 0; iy < plan.ny; ++iy) {
    for (int ix = 0; ix < plan.nx; ++ix) {
      ExpandWindow w;
      w.ix = ix;
      w.iy = iy;
      w.x0 = plan.xs[static_cast<std::size_t>(ix)];
      w.y0 = plan.ys[static_cast<std::size_t>(iy)];
      w.wave = ix + iy;
      w.index = static_cast<std::uint64_t>(iy) * plan.nx + ix;
      plan.windows.push_back(w);
      plan.deps.push_back(
          {ix > 0 ? static_cast<int>(w.index) - 1 : -1,
           iy > 0 ? static_cast<int>(w.index) - plan.nx : -1});
    }
  }
  return plan;
}

}  // namespace pp::expand
