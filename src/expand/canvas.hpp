// Expansion canvas.
//
// The canvas is a byte raster plus a parallel committed-pixel bitmap.
// Committed content is immutable: a pixel is written exactly once (by the
// unique window that covers it freshly — see plan.hpp, disjoint-commit
// invariant) and every later window only reads it as conditioning.
#pragma once

#include <cstdint>

#include "geometry/raster.hpp"

namespace pp::expand {

class ExpandCanvas {
 public:
  ExpandCanvas(int width, int height);

  int width() const { return pixels_.width(); }
  int height() const { return pixels_.height(); }

  /// Pastes the seed at the top-left and marks its pixels committed.
  void place_seed(const Raster& seed);

  /// Writes one pixel and marks it committed. Committed pixels must never
  /// be rewritten (throws pp::Error).
  void commit(int x, int y, std::uint8_t v);

  /// Canvas content of a window rect (uncommitted pixels read as 0).
  Raster crop(const Rect& r) const;
  /// 1 = committed, per pixel of the rect.
  Raster committed_crop(const Rect& r) const;

  /// Full canvas copy.
  Raster snapshot() const { return pixels_; }

 private:
  Raster pixels_;
  Raster committed_;
};

}  // namespace pp::expand
