#include "select/masks.hpp"

#include "common/error.hpp"

namespace pp {

std::vector<Raster> make_mask_set(MaskSet set, int width, int height) {
  PP_REQUIRE(width >= 8 && height >= 8);
  std::vector<Raster> masks;
  auto box = [&](const Rect& r) {
    Raster m(width, height);
    m.fill_rect(r, 1);
    masks.push_back(std::move(m));
  };
  if (set == MaskSet::kDefault) {
    int hw = width / 2, hh = height / 2;
    box(Rect{0, 0, hw, hh});            // top-left
    box(Rect{hw, 0, width, hh});        // top-right
    box(Rect{0, hh, hw, height});       // bottom-left
    box(Rect{hw, hh, width, height});   // bottom-right
    box(Rect{width / 4, height / 4, width / 4 + hw, height / 4 + hh});  // centre
  } else {
    // Five staggered bands, each height/4 tall (~25% area), offsets spread
    // so their union covers the clip.
    int band = height / 4;
    for (int i = 0; i < 5; ++i) {
      int y0 = i * (height - band) / 4;
      box(Rect{0, y0, width, y0 + band});
    }
  }
  return masks;
}

std::vector<Raster> all_masks(int width, int height) {
  std::vector<Raster> out = make_mask_set(MaskSet::kDefault, width, height);
  auto horiz = make_mask_set(MaskSet::kHorizontal, width, height);
  out.insert(out.end(), horiz.begin(), horiz.end());
  return out;
}

}  // namespace pp
