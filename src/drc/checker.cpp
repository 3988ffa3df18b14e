#include "drc/checker.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "drc/runs.hpp"
#include "geometry/polygon.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pp {

const char* rule_kind_name(RuleKind k) {
  switch (k) {
    case RuleKind::kMinWidthH: return "min_width_h";
    case RuleKind::kMaxWidthH: return "max_width_h";
    case RuleKind::kMinWidthV: return "min_width_v";
    case RuleKind::kMaxWidthV: return "max_width_v";
    case RuleKind::kMinSpaceH: return "min_space_h";
    case RuleKind::kMaxSpaceH: return "max_space_h";
    case RuleKind::kMinSpaceV: return "min_space_v";
    case RuleKind::kMaxSpaceV: return "max_space_v";
    case RuleKind::kMinArea: return "min_area";
    case RuleKind::kDiscreteWidth: return "discrete_width";
    case RuleKind::kWidthDependentSpacing: return "width_dependent_spacing";
  }
  return "unknown";
}

std::string Violation::to_string() const {
  std::ostringstream os;
  os << rule_kind_name(kind) << " at " << region << " measured=" << measured
     << " required=" << required;
  return os.str();
}

int DrcResult::count(RuleKind k) const {
  int n = 0;
  for (const auto& v : violations) n += (v.kind == k);
  return n;
}

Raster violation_mask(const DrcResult& result, int width, int height) {
  Raster mask(width, height);
  for (const Violation& v : result.violations) mask.fill_rect(v.region, 1);
  return mask;
}

DrcChecker::DrcChecker(RuleSet rules) : rules_(std::move(rules)) {
  PP_REQUIRE(rules_.min_width_h >= 1 && rules_.min_width_v >= 1);
  PP_REQUIRE(rules_.min_space_h >= 1 && rules_.min_space_v >= 1);
}

namespace {

bool width_allowed(const RuleSet& rules, int w) {
  return std::find(rules.allowed_widths_h.begin(), rules.allowed_widths_h.end(),
                   w) != rules.allowed_widths_h.end();
}

}  // namespace

void DrcChecker::check_impl(const Raster& r, DrcResult& out,
                            bool stop_early) const {
  auto add = [&](RuleKind kind, const Rect& region, int measured,
                 int required) {
    out.violations.push_back(Violation{kind, region, measured, required});
  };
  auto done = [&] { return stop_early && !out.violations.empty(); };

  // --- Width rules: maximal rectangles -------------------------------------
  for (const Rect& rect : maximal_rectangles(r)) {
    if (done()) break;
    bool horizontal = rect.width() <= rect.height();
    if (horizontal) {
      // Measured horizontally (vertical wire). Exempt when either vertical
      // edge lies on the clip border.
      if (rect.x0 == 0 || rect.x1 == r.width()) continue;
      int w = rect.width();
      if (w < rules_.min_width_h)
        add(RuleKind::kMinWidthH, rect, w, rules_.min_width_h);
      else if (rules_.max_width_h > 0 && w > rules_.max_width_h)
        add(RuleKind::kMaxWidthH, rect, w, rules_.max_width_h);
      else if (rules_.width_is_discrete() && !width_allowed(rules_, w))
        add(RuleKind::kDiscreteWidth, rect, w, 0);
    } else {
      if (rect.y0 == 0 || rect.y1 == r.height()) continue;
      int w = rect.height();
      if (w < rules_.min_width_v)
        add(RuleKind::kMinWidthV, rect, w, rules_.min_width_v);
      else if (rules_.max_width_v > 0 && w > rules_.max_width_v)
        add(RuleKind::kMaxWidthV, rect, w, rules_.max_width_v);
    }
  }

  // --- Horizontal spacing: row space runs -----------------------------------
  for (int y = 0; y < r.height() && !done(); ++y) {
    std::vector<Run> runs = row_runs(r, y);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const Run& run = runs[i];
      if (run.value || !run.bounded()) continue;
      Rect region{run.begin, y, run.end, y + 1};
      int s = run.length();
      if (s < rules_.min_space_h)
        add(RuleKind::kMinSpaceH, region, s, rules_.min_space_h);
      else if (rules_.max_space_h > 0 && s > rules_.max_space_h)
        add(RuleKind::kMaxSpaceH, region, s, rules_.max_space_h);
      else if (rules_.wd_spacing.enabled()) {
        // Neighbouring metal runs exist because the space run is bounded.
        int wl = runs[i - 1].length();
        int wr = runs[i + 1].length();
        int need = rules_.wd_spacing.required(wl, wr);
        if (s < need)
          add(RuleKind::kWidthDependentSpacing, region, s, need);
      }
      if (done()) break;
    }
  }

  // --- Vertical spacing: column space runs ----------------------------------
  for (int x = 0; x < r.width() && !done(); ++x) {
    std::vector<Run> runs = column_runs(r, x);
    for (const Run& run : runs) {
      if (run.value || !run.bounded()) continue;
      Rect region{x, run.begin, x + 1, run.end};
      int s = run.length();
      if (s < rules_.min_space_v)
        add(RuleKind::kMinSpaceV, region, s, rules_.min_space_v);
      else if (rules_.max_space_v > 0 && s > rules_.max_space_v)
        add(RuleKind::kMaxSpaceV, region, s, rules_.max_space_v);
      if (done()) break;
    }
  }

  // --- Component rules: area -----------------------------------------------
  if (rules_.min_area > 0 && !done()) {
    ComponentMap cm = label_components(r);
    for (const Component& c : cm.components) {
      if (c.area < rules_.min_area)
        add(RuleKind::kMinArea, c.bbox, static_cast<int>(c.area),
            static_cast<int>(rules_.min_area));
      if (done()) break;
    }
  }
}

namespace {

void count_check(bool clean) {
  static obs::Counter& checks = obs::metrics().counter("drc.checks");
  static obs::Counter& clean_count = obs::metrics().counter("drc.clean");
  checks.add(1);
  if (clean) clean_count.add(1);
}

}  // namespace

DrcResult DrcChecker::check(const Raster& r) const {
  PP_TRACE_SPAN("drc.check");
  DrcResult out;
  check_impl(r, out, /*stop_early=*/false);
  count_check(out.clean());
  return out;
}

bool DrcChecker::is_clean(const Raster& r) const {
  PP_TRACE_SPAN("drc.check");
  DrcResult out;
  check_impl(r, out, /*stop_early=*/true);
  count_check(out.clean());
  return out.clean();
}

}  // namespace pp
