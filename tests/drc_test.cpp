// Tests for the run scanner and the design rule checker, including the
// strap exemption and the advanced (discrete / width-dependent) rules.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "drc/checker.hpp"
#include "drc/rules.hpp"
#include "drc/runs.hpp"
#include "common/rng.hpp"
#include "patterngen/track_generator.hpp"

namespace pp {
namespace {

TEST(Runs, RowRunsBasic) {
  Raster r = Raster::from_ascii("..###.#\n");
  auto runs = row_runs(r, 0);
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_FALSE(runs[0].value);
  EXPECT_FALSE(runs[0].bounded_lo);  // touches left border
  EXPECT_TRUE(runs[0].bounded_hi);
  EXPECT_TRUE(runs[1].value);
  EXPECT_EQ(runs[1].length(), 3);
  EXPECT_TRUE(runs[1].bounded());
  EXPECT_TRUE(runs[2].bounded());
  EXPECT_EQ(runs[2].length(), 1);
  EXPECT_FALSE(runs[3].bounded_hi);  // touches right border
}

TEST(Runs, ColumnRuns) {
  Raster r = Raster::from_ascii(
      "#\n"
      ".\n"
      "#\n"
      "#\n");
  auto runs = column_runs(r, 0);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_TRUE(runs[0].value);
  EXPECT_FALSE(runs[0].bounded_lo);
  EXPECT_TRUE(runs[1].bounded());
  EXPECT_EQ(runs[2].length(), 2);
}

TEST(Runs, UniformRowIsSingleUnboundedRun) {
  Raster r(5, 1, 1);
  auto runs = row_runs(r, 0);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_FALSE(runs[0].bounded_lo);
  EXPECT_FALSE(runs[0].bounded_hi);
}

TEST(Runs, OutOfRangeThrows) {
  Raster r(3, 3);
  EXPECT_THROW(row_runs(r, 3), Error);
  EXPECT_THROW(column_runs(r, -1), Error);
}

// --- Rule set factories ------------------------------------------------------

TEST(Rules, FactoriesHaveExpectedStructure) {
  RuleSet d = default_rules();
  EXPECT_EQ(d.max_width_h, 0);
  EXPECT_FALSE(d.width_is_discrete());
  EXPECT_FALSE(d.wd_spacing.enabled());

  RuleSet c = complex_rules();
  EXPECT_GT(c.max_width_h, 0);
  EXPECT_GT(c.max_space_h, 0);
  EXPECT_FALSE(c.width_is_discrete());

  RuleSet a = advance_rules();
  EXPECT_TRUE(a.width_is_discrete());
  EXPECT_TRUE(a.wd_spacing.enabled());
}

TEST(Rules, LookupByName) {
  EXPECT_EQ(rules_by_name("default").name, "default");
  EXPECT_EQ(rules_by_name("complex").name, "complex");
  EXPECT_EQ(rules_by_name("advance").name, "complex-discrete");
  EXPECT_EQ(rules_by_name("complex-discrete").name, "complex-discrete");
  EXPECT_THROW(rules_by_name("intel18a"), Error);
}

TEST(Rules, WidthDependentSpacingTable) {
  WidthDependentSpacing w;
  w.wide_threshold = 10;
  w.thin_thin = 6;
  w.thin_wide = 8;
  w.wide_wide = 10;
  EXPECT_EQ(w.required(6, 6), 6);
  EXPECT_EQ(w.required(6, 10), 8);
  EXPECT_EQ(w.required(14, 6), 8);
  EXPECT_EQ(w.required(10, 14), 10);
  WidthDependentSpacing off;
  EXPECT_EQ(off.required(100, 100), 0);
}

TEST(Rules, ScaleDownHalvesEverything) {
  RuleSet a = advance_rules();
  RuleSet h = scale_rules_down(a, 2);
  EXPECT_EQ(h.min_width_h, 3);
  EXPECT_EQ(h.max_width_h, 8);
  EXPECT_EQ(h.min_space_h, 3);
  EXPECT_EQ(h.max_space_h, 22);
  EXPECT_EQ(h.min_width_v, 4);
  EXPECT_EQ(h.min_area, 20);
  EXPECT_EQ(h.allowed_widths_h, (std::vector<int>{3, 5, 7}));
  EXPECT_EQ(h.wd_spacing.wide_threshold, 5);
  EXPECT_EQ(h.wd_spacing.wide_wide, 5);
  EXPECT_NE(h.name, a.name);
}

TEST(Rules, ScaleDownByOneIsIdentityOnDims) {
  RuleSet a = advance_rules();
  RuleSet s = scale_rules_down(a, 1);
  EXPECT_EQ(s.min_width_h, a.min_width_h);
  EXPECT_EQ(s.allowed_widths_h, a.allowed_widths_h);
  EXPECT_EQ(s.min_area, a.min_area);
}

TEST(Rules, ScaleDownNeverBelowOneAndKeepsUnbounded) {
  RuleSet d = default_rules();
  RuleSet s = scale_rules_down(d, 100);
  EXPECT_EQ(s.min_width_h, 1);
  EXPECT_EQ(s.max_width_h, 0);  // unbounded stays unbounded
  EXPECT_EQ(s.min_area, 1);
}

TEST(Rules, ScaledRulesGeometricallyConsistent) {
  // A clip legal under full rules, downscaled 2x, is legal under halved
  // rules (for geometry that lands on even coordinates).
  RuleSet full = advance_rules();
  RuleSet half = scale_rules_down(full, 2);
  Raster big(64, 64);
  big.fill_rect(Rect{8, 0, 18, 64}, 1);   // width 10
  big.fill_rect(Rect{30, 0, 44, 64}, 1);  // width 14, spacing 12
  ASSERT_TRUE(DrcChecker(full).is_clean(big));
  Raster small(32, 32);
  for (int y = 0; y < 32; ++y)
    for (int x = 0; x < 32; ++x) small(x, y) = big(2 * x, 2 * y);
  EXPECT_TRUE(DrcChecker(half).is_clean(small));
}

// --- Checker: helpers ---------------------------------------------------------

/// Two full-height tracks of widths wa/wb separated by `space` pixels in a
/// height x (wa+space+wb+2*margin) clip.
Raster two_tracks(int wa, int wb, int space, int height = 40, int margin = 8) {
  Raster r(margin + wa + space + wb + margin, height);
  r.fill_rect(Rect{margin, 0, margin + wa, height}, 1);
  r.fill_rect(Rect{margin + wa + space, 0, margin + wa + space + wb, height}, 1);
  return r;
}

TEST(Checker, CleanTwoTracksUnderDefault) {
  DrcChecker drc(default_rules());
  Raster r = two_tracks(6, 6, 8);
  EXPECT_TRUE(drc.check(r).clean());
  EXPECT_TRUE(drc.is_clean(r));
}

TEST(Checker, MinWidthViolation) {
  DrcChecker drc(default_rules());
  Raster r = two_tracks(4, 6, 8);  // 4 < min_width 6
  DrcResult res = drc.check(r);
  EXPECT_FALSE(res.clean());
  EXPECT_GT(res.count(RuleKind::kMinWidthH), 0);
  EXPECT_FALSE(drc.is_clean(r));
}

TEST(Checker, MinSpaceViolation) {
  DrcChecker drc(default_rules());
  Raster r = two_tracks(6, 6, 4);  // 4 < min_space 6
  DrcResult res = drc.check(r);
  EXPECT_GT(res.count(RuleKind::kMinSpaceH), 0);
}

TEST(Checker, BorderRunsExempt) {
  DrcChecker drc(default_rules());
  // A 3-wide track touching the left border: its horizontal runs are
  // unbounded on the low side, hence unchecked.
  Raster r(30, 30);
  r.fill_rect(Rect{0, 0, 3, 30}, 1);
  EXPECT_TRUE(drc.check(r).clean());
}

TEST(Checker, MaxWidthUnderComplex) {
  DrcChecker drc(complex_rules());
  Raster r = two_tracks(20, 6, 10);  // 20 > max_width 16
  DrcResult res = drc.check(r);
  EXPECT_GT(res.count(RuleKind::kMaxWidthH), 0);
}

TEST(Checker, MaxSpaceUnderComplex) {
  DrcChecker drc(complex_rules());
  Raster r = two_tracks(6, 6, 50);  // 50 > max_space 44
  EXPECT_GT(drc.check(r).count(RuleKind::kMaxSpaceH), 0);
  // Same geometry is fine under the default (unbounded) rules.
  EXPECT_TRUE(DrcChecker(default_rules()).check(r).clean());
}

TEST(Checker, EndToEndSpacingVertical) {
  RuleSet rules = complex_rules();
  DrcChecker drc(rules);
  // One track broken by a gap smaller than min_space_v.
  Raster r(30, 40);
  r.fill_rect(Rect{8, 0, 14, 18}, 1);
  r.fill_rect(Rect{8, 18 + rules.min_space_v - 1, 14, 40}, 1);
  EXPECT_GT(drc.check(r).count(RuleKind::kMinSpaceV), 0);
  // Exactly min_space_v is legal.
  Raster ok(30, 40);
  ok.fill_rect(Rect{8, 0, 14, 18}, 1);
  ok.fill_rect(Rect{8, 18 + rules.min_space_v, 14, 40}, 1);
  EXPECT_EQ(drc.check(ok).count(RuleKind::kMinSpaceV), 0);
}

TEST(Checker, ThinHorizontalBarViolatesMinWidthV) {
  RuleSet rules = complex_rules();
  rules.min_area = 0;  // isolate the vertical width rule
  DrcChecker drc(rules);
  // A wide, short bar is measured vertically: 20 x 7 with min_width_v = 8.
  Raster r(40, 40);
  r.fill_rect(Rect{8, 10, 28, 10 + rules.min_width_v - 1}, 1);
  EXPECT_GT(drc.check(r).count(RuleKind::kMinWidthV), 0);
  // A narrow stub (6 x 7) is measured horizontally instead and its height
  // escapes the vertical rule — it is the AREA rule that rejects slivers.
  Raster stub(40, 40);
  stub.fill_rect(Rect{8, 10, 14, 17}, 1);
  EXPECT_EQ(drc.check(stub).count(RuleKind::kMinWidthV), 0);
  EXPECT_GT(DrcChecker(complex_rules()).check(stub).count(RuleKind::kMinArea),
            0);
}

TEST(Checker, MinAreaViolation) {
  RuleSet rules = default_rules();  // min_area 60
  DrcChecker drc(rules);
  Raster r(40, 40);
  r.fill_rect(Rect{10, 10, 17, 17}, 1);  // 49 px, 7x7 satisfies width rules
  DrcResult res = drc.check(r);
  EXPECT_GT(res.count(RuleKind::kMinArea), 0);
}

TEST(Checker, DiscreteWidthViolation) {
  DrcChecker drc(advance_rules());  // allowed {6, 10, 14}
  Raster ok = two_tracks(6, 10, 12);
  EXPECT_TRUE(drc.check(ok).clean()) << drc.check(ok).violations.size();
  Raster bad = two_tracks(6, 8, 12);  // 8 not allowed
  EXPECT_GT(drc.check(bad).count(RuleKind::kDiscreteWidth), 0);
}

TEST(Checker, WidthDependentSpacing) {
  DrcChecker drc(advance_rules());
  // Two wide tracks (14) need spacing >= 10; 8 violates wd rule while
  // satisfying the base min_space of 6.
  Raster bad = two_tracks(14, 14, 8);
  DrcResult res = drc.check(bad);
  EXPECT_GT(res.count(RuleKind::kWidthDependentSpacing), 0);
  EXPECT_EQ(res.count(RuleKind::kMinSpaceH), 0);
  Raster ok = two_tracks(14, 14, 10);
  EXPECT_TRUE(drc.check(ok).clean());
  // Thin-thin at 6 stays legal.
  EXPECT_TRUE(drc.check(two_tracks(6, 6, 6)).clean());
  // Thin-wide needs 8.
  EXPECT_FALSE(drc.check(two_tracks(6, 14, 7)).clean());
  EXPECT_TRUE(drc.check(two_tracks(6, 14, 8)).clean());
}

TEST(Checker, StrapExemptionAllowsInterTrackConnection) {
  DrcChecker drc(advance_rules());
  // Two 6-wide tracks 12 apart, joined by a 10-tall strap: the merged
  // horizontal runs (6+12+6=24 px) are neither discrete nor <= max_width,
  // but every strap row is backed by metal above or below.
  Raster r = two_tracks(6, 6, 12, 48);
  int x0 = 8 + 6, x1 = 8 + 6 + 12;
  r.fill_rect(Rect{x0, 16, x1, 26}, 1);
  DrcResult res = drc.check(r);
  EXPECT_TRUE(res.clean()) << (res.violations.empty()
                                   ? ""
                                   : res.violations[0].to_string());
}

TEST(Checker, ThinStrapViolatesVerticalWidth) {
  DrcChecker drc(advance_rules());  // min_width_v = 8
  Raster r = two_tracks(6, 6, 12, 48);
  int x0 = 8 + 6, x1 = 8 + 6 + 12;
  r.fill_rect(Rect{x0, 16, x1, 20}, 1);  // 4-tall strap
  EXPECT_GT(drc.check(r).count(RuleKind::kMinWidthV), 0);
}

TEST(Checker, IsCleanMatchesCheckOnDirtyAndClean) {
  DrcChecker drc(advance_rules());
  Raster clean = two_tracks(10, 14, 10);
  Raster dirty = two_tracks(7, 14, 10);
  EXPECT_EQ(drc.is_clean(clean), drc.check(clean).clean());
  EXPECT_EQ(drc.is_clean(dirty), drc.check(dirty).clean());
}

TEST(Checker, ViolationToStringMentionsRule) {
  DrcChecker drc(default_rules());
  DrcResult res = drc.check(two_tracks(4, 6, 8));
  ASSERT_FALSE(res.clean());
  EXPECT_NE(res.violations[0].to_string().find("min_width_h"),
            std::string::npos);
}

TEST(Checker, RejectsDegenerateRules) {
  RuleSet r = default_rules();
  r.min_width_h = 0;
  EXPECT_THROW(DrcChecker{r}, Error);
}

TEST(Checker, EmptyClipIsClean) {
  RuleSet rules = advance_rules();
  DrcChecker drc(rules);
  EXPECT_TRUE(drc.check(Raster(64, 64)).clean());
}

// Progressive difficulty: a fixed pool of random two-track clips should be
// accepted strictly less often as rules harden (default -> complex ->
// complex-discrete). This is the premise of the Fig. 9 ablation.
TEST(Checker, RuleSetsAreProgressivelyStricter) {
  DrcChecker d(default_rules()), c(complex_rules()), a(advance_rules());
  int nd = 0, nc = 0, na = 0;
  for (int wa = 6; wa <= 18; ++wa)
    for (int s = 6; s <= 14; s += 2) {
      Raster r = two_tracks(wa, wa, s);
      bool okd = d.is_clean(r), okc = c.is_clean(r), oka = a.is_clean(r);
      nd += okd;
      nc += okc;
      na += oka;
      // Monotonicity on this family: advance-clean => complex-clean =>
      // default-clean.
      if (oka) {
        EXPECT_TRUE(okc);
      }
      if (okc) {
        EXPECT_TRUE(okd);
      }
    }
  EXPECT_GT(nd, nc);
  EXPECT_GT(nc, na);
  EXPECT_GT(na, 0);
}

// Sensitivity property: punching a 1-px hole in the interior of any metal
// shape must always be caught (it creates a bounded unit space run).
class CheckerSensitivity : public ::testing::TestWithParam<int> {};

TEST_P(CheckerSensitivity, DetectsPinholes) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6364136223846793005ULL + 1);
  RuleSet rules = advance_rules();
  DrcChecker drc(rules);
  TrackPatternGenerator gen(TrackGenConfig{}, rules);
  auto clip_opt = gen.try_generate(rng);
  if (!clip_opt) GTEST_SKIP() << "generator rejection";
  Raster clip = *clip_opt;
  ASSERT_TRUE(drc.is_clean(clip));
  // Find an interior metal pixel (all 4 neighbours metal).
  for (int y = 1; y < clip.height() - 1; ++y)
    for (int x = 1; x < clip.width() - 1; ++x) {
      if (clip(x, y) && clip(x - 1, y) && clip(x + 1, y) && clip(x, y - 1) &&
          clip(x, y + 1)) {
        Raster mutated = clip;
        mutated(x, y) = 0;
        EXPECT_FALSE(drc.is_clean(mutated))
            << "pinhole at " << x << "," << y << " undetected";
        return;
      }
    }
  GTEST_SKIP() << "no interior pixel";
}

INSTANTIATE_TEST_SUITE_P(Random, CheckerSensitivity, ::testing::Range(0, 20));

// Sensitivity: shaving one column off a discrete-width track must trip the
// discrete-width rule.
TEST(Checker, DetectsOffMenuWidthAfterShave) {
  DrcChecker drc(advance_rules());
  Raster r = two_tracks(10, 10, 12);
  ASSERT_TRUE(drc.is_clean(r));
  // Shave the left track to width 9 (not in {6, 10, 14}).
  r.fill_rect(Rect{8, 0, 9, r.height()}, 0);
  DrcResult res = drc.check(r);
  EXPECT_GT(res.count(RuleKind::kDiscreteWidth), 0);
}

}  // namespace
}  // namespace pp
