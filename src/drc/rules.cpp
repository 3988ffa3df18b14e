#include "drc/rules.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pp {

int WidthDependentSpacing::required(int w_left, int w_right) const {
  if (!enabled()) return 0;
  bool lw = w_left >= wide_threshold;
  bool rw = w_right >= wide_threshold;
  if (lw && rw) return wide_wide;
  if (lw || rw) return thin_wide;
  return thin_thin;
}

RuleSet default_rules() {
  RuleSet r;
  r.name = "default";
  r.min_width_h = 6;
  r.min_width_v = 6;
  r.min_space_h = 6;
  r.min_space_v = 6;
  r.min_area = 60;
  return r;
}

RuleSet complex_rules() {
  RuleSet r;
  r.name = "complex";
  // Horizontal direction (wire widths / track spacings).
  r.min_width_h = 6;
  r.max_width_h = 16;
  r.min_space_h = 6;
  r.max_space_h = 44;
  // Vertical direction (end caps / end-to-end gaps) is looser but bounded.
  r.min_width_v = 8;
  r.max_width_v = 0;  // wires may span the clip
  r.min_space_v = 8;
  r.max_space_v = 0;
  r.min_area = 80;
  return r;
}

RuleSet advance_rules() {
  RuleSet r = complex_rules();
  r.name = "complex-discrete";
  // R3.1-W: only three drawn widths exist on this layer.
  r.allowed_widths_h = {6, 10, 14};
  // R1.1-1.4-S: wider neighbours demand more space.
  r.wd_spacing.wide_threshold = 10;
  r.wd_spacing.thin_thin = 6;
  r.wd_spacing.thin_wide = 8;
  r.wd_spacing.wide_wide = 10;
  return r;
}

RuleSet scale_rules_down(RuleSet r, int divisor) {
  PP_REQUIRE(divisor >= 1);
  auto div = [divisor](int v) {
    return v <= 0 ? v : std::max(1, (v + divisor - 1) / divisor);
  };
  r.name += "/" + std::to_string(divisor);
  r.min_width_h = div(r.min_width_h);
  r.max_width_h = div(r.max_width_h);
  r.min_width_v = div(r.min_width_v);
  r.max_width_v = div(r.max_width_v);
  r.min_space_h = div(r.min_space_h);
  r.max_space_h = div(r.max_space_h);
  r.min_space_v = div(r.min_space_v);
  r.max_space_v = div(r.max_space_v);
  if (r.min_area > 0)
    r.min_area = std::max<long long>(
        1, r.min_area / (static_cast<long long>(divisor) * divisor));
  for (int& w : r.allowed_widths_h) w = div(w);
  // Deduplicate widths that collapsed onto each other.
  std::sort(r.allowed_widths_h.begin(), r.allowed_widths_h.end());
  r.allowed_widths_h.erase(
      std::unique(r.allowed_widths_h.begin(), r.allowed_widths_h.end()),
      r.allowed_widths_h.end());
  if (r.wd_spacing.enabled()) {
    r.wd_spacing.wide_threshold = div(r.wd_spacing.wide_threshold);
    r.wd_spacing.thin_thin = div(r.wd_spacing.thin_thin);
    r.wd_spacing.thin_wide = div(r.wd_spacing.thin_wide);
    r.wd_spacing.wide_wide = div(r.wd_spacing.wide_wide);
  }
  return r;
}

RuleSet rules_by_name(const std::string& name) {
  if (name == "default") return default_rules();
  if (name == "complex") return complex_rules();
  if (name == "complex-discrete" || name == "advance") return advance_rules();
  throw Error("unknown rule set: " + name);
}

}  // namespace pp
