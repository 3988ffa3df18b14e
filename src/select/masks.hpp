// Predefined inpainting mask sets (Fig. 6 of the paper).
//
// Two sets of five masks each (10 total), each covering roughly 25% of the
// clip, following the paper's inference guidance of masking about a quarter
// of the image:
//   * default set    — four quadrant masks plus a centre mask, for general
//                      pattern variation (wire edits, inter-track bridges);
//   * horizontal set — five staggered horizontal bands, tailored to
//                      vertical-track layouts so end-to-end gaps and
//                      inner-track structure get explored.
// During iterative generation, each selected layout takes the NEXT mask of
// its set in a fixed sequential schedule (Sec. IV-E2), so consecutive
// iterations edit adjacent regions while preserving earlier edits.
#pragma once

#include <vector>

#include "geometry/raster.hpp"

namespace pp {

enum class MaskSet { kDefault, kHorizontal };

/// The five masks of one set for a width x height clip (1 = regenerate).
std::vector<Raster> make_mask_set(MaskSet set, int width, int height);

/// All ten masks: default set followed by horizontal set.
std::vector<Raster> all_masks(int width, int height);

}  // namespace pp
