#include "expand/canvas.hpp"

#include "common/error.hpp"

namespace pp::expand {

ExpandCanvas::ExpandCanvas(int width, int height)
    : pixels_(width, height), committed_(width, height) {
  PP_REQUIRE(width > 0 && height > 0);
}

void ExpandCanvas::place_seed(const Raster& seed) {
  PP_REQUIRE(seed.width() <= width() && seed.height() <= height());
  for (int y = 0; y < seed.height(); ++y)
    for (int x = 0; x < seed.width(); ++x) commit(x, y, seed(x, y));
}

void ExpandCanvas::commit(int x, int y, std::uint8_t v) {
  PP_REQUIRE(x >= 0 && x < width() && y >= 0 && y < height());
  PP_REQUIRE_MSG(committed_(x, y) == 0, "expand canvas pixel committed twice");
  pixels_(x, y) = v ? std::uint8_t{1} : std::uint8_t{0};
  committed_(x, y) = 1;
}

Raster ExpandCanvas::crop(const Rect& r) const {
  PP_REQUIRE(r.x0 >= 0 && r.y0 >= 0 && r.x1 <= width() && r.y1 <= height());
  return pixels_.crop(r);
}

Raster ExpandCanvas::committed_crop(const Rect& r) const {
  PP_REQUIRE(r.x0 >= 0 && r.y0 >= 0 && r.x1 <= width() && r.y1 <= height());
  return committed_.crop(r);
}

}  // namespace pp::expand
