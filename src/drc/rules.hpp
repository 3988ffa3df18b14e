// Design rule models (Fig. 3 of the paper).
//
// Three progressively harder rule settings are provided, mirroring the
// paper's ablation (Sec. VI, Fig. 9):
//   * default          — academic rules of DiffPattern: min width, min
//                        spacing, min area;
//   * complex          — direction-dependent minimum AND maximum width /
//                        spacing (upper bounds are what break nonlinear
//                        solvers);
//   * complex-discrete — additionally restricts horizontal wire widths to a
//                        discrete set (R3.1-W) and makes minimum spacing
//                        depend on the widths of both neighbouring wires
//                        (R1.1-1.4-S).
// The complex-discrete set doubles as our synthetic stand-in for the Intel
// 18A sign-off deck ("advance rule set").
//
// Conventions (pixel DRC on clips):
//   * "horizontal" width/spacing = lengths of maximal pixel runs along a row
//     (i.e. the width of vertical wires and the spacing between them);
//   * "vertical" = runs along a column (wire end caps, end-to-end spacing
//     R2-E);
//   * runs touching the clip border are exempt (the neighbouring geometry is
//     outside the clip and unknown), as is standard for clip-level DRC;
//   * area rule applies to every 4-connected metal component.
#pragma once

#include <string>
#include <vector>

namespace pp {

/// Minimum spacing required between a pair of neighbouring wires as a
/// function of their width classes ("thin" < wide_threshold <= "wide").
struct WidthDependentSpacing {
  int wide_threshold = 0;  ///< 0 disables the table.
  int thin_thin = 0;       ///< Min spacing when both neighbours are thin.
  int thin_wide = 0;       ///< Min spacing for a thin/wide pair.
  int wide_wide = 0;       ///< Min spacing when both neighbours are wide.

  bool enabled() const { return wide_threshold > 0; }
  int required(int w_left, int w_right) const;
};

/// A complete rule set for one metal layer.
struct RuleSet {
  std::string name = "unnamed";

  // R3-W: width limits per direction. 0 for a max means "unbounded".
  int min_width_h = 1;
  int max_width_h = 0;
  int min_width_v = 1;
  int max_width_v = 0;

  // R1-S (horizontal) and R2-E (vertical end-to-end): spacing limits.
  int min_space_h = 1;
  int max_space_h = 0;
  int min_space_v = 1;
  int max_space_v = 0;

  // R4-A: minimum component area in pixels (0 disables).
  long long min_area = 0;

  // R3.1-W: when non-empty, every bounded horizontal metal run must have a
  // length contained in this set (discrete widths).
  std::vector<int> allowed_widths_h;

  // R1.1-1.4-S: width-dependent spacing (horizontal direction).
  WidthDependentSpacing wd_spacing;

  bool width_is_discrete() const { return !allowed_widths_h.empty(); }
};

/// Academic rule set matching DiffPattern's setting (min width/space/area).
RuleSet default_rules();

/// Adds direction-dependent min/max width and spacing bounds.
RuleSet complex_rules();

/// Adds discrete widths and width-dependent spacing on top of complex —
/// our synthetic "Intel 18A advance rule set".
RuleSet advance_rules();

/// Looks up one of the three sets by name ("default", "complex",
/// "complex-discrete" / "advance"); throws pp::Error for unknown names.
RuleSet rules_by_name(const std::string& name);

/// Scales every dimensional rule down by `divisor` (ceil division, minimum
/// 1; areas divide by divisor^2). Used to run the same node at a coarser
/// pixel pitch — e.g. halved() rules on 32px clips are geometrically
/// equivalent to the full rules on 64px clips with 2nm pixels.
RuleSet scale_rules_down(RuleSet rules, int divisor);

}  // namespace pp
