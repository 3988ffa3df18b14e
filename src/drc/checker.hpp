// Pixel-level design rule checking of layout clips.
//
// Semantics (the precise spec of our synthetic node):
//   * WIDTH (R3-W, R3.1-W): measured on MAXIMAL RECTANGLES of metal, as in
//     production width rules. For each maximal rectangle, the drawn width is
//     its minimum dimension; the measurement direction is the axis of that
//     minimum (ties measure horizontally). A horizontally-measured rectangle
//     (a vertical wire) must have width in [min_width_h, max_width_h] and,
//     under discrete rules, in allowed_widths_h; a vertically-measured one
//     (an inter-track strap / horizontal bar) must be in [min_width_v,
//     max_width_v]. A rectangle whose measured extent touches the clip
//     border on either side of the measurement axis is exempt (the shape
//     continues outside the clip).
//   * SPACING (R1-S horizontal, R2-E vertical end-to-end): measured on
//     maximal pixel runs of empty space along rows / columns. Bounded
//     horizontal space runs must be within [min_space_h, max_space_h] and
//     at least the width-dependent requirement computed from the lengths of
//     the two adjacent metal runs (R1.1-1.4-S). Bounded vertical space runs
//     must be within [min_space_v, max_space_v]. Runs touching the clip
//     border are never checked.
//   * AREA (R4-A): every 4-connected metal component needs area >= min_area.
#pragma once

#include <string>
#include <vector>

#include "drc/rules.hpp"
#include "geometry/raster.hpp"

namespace pp {

enum class RuleKind {
  kMinWidthH,
  kMaxWidthH,
  kMinWidthV,
  kMaxWidthV,
  kMinSpaceH,
  kMaxSpaceH,
  kMinSpaceV,
  kMaxSpaceV,
  kMinArea,
  kDiscreteWidth,
  kWidthDependentSpacing,
};

const char* rule_kind_name(RuleKind k);

/// One design-rule violation, localized to a region of the clip.
struct Violation {
  RuleKind kind;
  Rect region;      ///< Offending run / component bounding box.
  int measured = 0; ///< Measured dimension (length or area, clamped to int).
  int required = 0; ///< The bound that was violated.

  std::string to_string() const;
};

/// Result of checking one clip.
struct DrcResult {
  std::vector<Violation> violations;

  bool clean() const { return violations.empty(); }
  /// Number of violations of a given kind.
  int count(RuleKind k) const;
};

/// Rasterizes the violation regions of a result (1 = inside some violation
/// bounding box) on a canvas of the checked clip's size — a heatmap for
/// debugging and reporting.
Raster violation_mask(const DrcResult& result, int width, int height);

class DrcChecker {
 public:
  explicit DrcChecker(RuleSet rules);

  const RuleSet& rules() const { return rules_; }

  /// Full check, collecting every violation.
  DrcResult check(const Raster& r) const;

  /// Fast path: stops at the first violation. Equivalent to
  /// check(r).clean() but cheaper on dirty clips.
  bool is_clean(const Raster& r) const;

 private:
  void check_impl(const Raster& r, DrcResult& out, bool stop_early) const;

  RuleSet rules_;
};

}  // namespace pp
