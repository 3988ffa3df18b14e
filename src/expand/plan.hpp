// Tiling planner for arbitrary-size layout expansion.
//
// Decomposes a W x H target canvas into overlapping clip-sized windows laid
// on a fixed stride grid (final row/column clamped flush to the canvas
// edge), with explicit LEFT/TOP dependency edges: window (ix, iy) reads the
// committed overlap of (ix-1, iy) and (ix, iy-1), so those must commit
// first. Every dependency points up-or-left, which makes the anti-diagonal
// index `wave = ix + iy` a valid topological level: all windows of one wave
// are mutually independent and can be generated concurrently.
//
// Disjoint-commit invariant (the reason wavefront execution is bitwise
// identical to the sequential row-major loop): for any two windows U=(a,b),
// V=(c,d) with neither a transitive dependency of the other (a < c, b > d
// wlog), every pixel of U ∩ V also lies in W=(a,d) — its x-range comes from
// U membership, its y-range from V membership — and W is a grid ancestor of
// both. So any overlap between dependency-incomparable windows is already
// committed by a common ancestor before either runs, each window commits
// exactly its fresh (never-before-covered) pixels, and the committed canvas
// is independent of the order any dependency-respecting schedule runs
// windows in.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace pp::expand {

/// One clip-sized generation window of the plan.
struct ExpandWindow {
  int ix = 0, iy = 0;       ///< grid coordinates
  int x0 = 0, y0 = 0;       ///< canvas-pixel origin
  int wave = 0;             ///< anti-diagonal level: ix + iy
  std::uint64_t index = 0;  ///< row-major plan index — the window's RNG
                            ///< stream id (pure function of the plan, so a
                            ///< window's noise never depends on scheduling)
};

/// The full decomposition of one expansion target.
struct ExpandPlan {
  int target_w = 0, target_h = 0;
  int clip = 0;    ///< window side (the model's clip size)
  int stride = 0;  ///< grid step between window origins
  int nx = 0, ny = 0;
  std::vector<int> xs, ys;            ///< window origins per axis
  std::vector<ExpandWindow> windows;  ///< row-major (iy * nx + ix)
  /// Explicit dependency edges: deps[i] = {left, top} plan indices of
  /// windows[i]'s predecessors, -1 when on the grid border.
  std::vector<std::array<int, 2>> deps;

  int waves() const { return nx + ny - 1; }
  const ExpandWindow& at(int ix, int iy) const {
    return windows[static_cast<std::size_t>(iy) * nx + ix];
  }
};

/// Largest canvas edge an expansion may ask for. It bounds the canvas
/// allocation and the executor time of one request, far above any clip
/// size; every entry point (library, serve, CLI) enforces it through
/// expand_request_problem.
inline constexpr int kMaxCanvasEdge = 4096;

/// Validates an expansion request against the model clip. Returns an empty
/// string when acceptable, else a human-readable reason — shared verbatim
/// between the library path (typed pp::Error) and serve admission
/// (structured bad_request), so the two layers cannot drift.
std::string expand_request_problem(int target_w, int target_h, int clip,
                                   int seed_w, int seed_h);

/// Builds the plan. The stride is half a clip (50% overlap), at least 4.
/// Throws pp::Error on any request expand_request_problem rejects.
ExpandPlan make_expand_plan(int target_w, int target_h, int clip);

}  // namespace pp::expand
