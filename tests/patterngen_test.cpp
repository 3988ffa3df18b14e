// Tests for the rule-based generators: DR-cleanliness by construction,
// distinctness, diversity, and the rule-oblivious pretraining corpus.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "drc/checker.hpp"
#include "metrics/entropy.hpp"
#include "patterngen/random_clips.hpp"
#include "patterngen/track_generator.hpp"

namespace pp {
namespace {

TEST(TrackGen, GeneratesCleanClipsUnderAdvanceRules) {
  Rng rng(101);
  TrackPatternGenerator gen(TrackGenConfig{}, advance_rules());
  auto clips = gen.generate(20, rng);
  ASSERT_EQ(clips.size(), 20u);
  DrcChecker drc(advance_rules());
  for (const auto& c : clips) {
    DrcResult res = drc.check(c);
    EXPECT_TRUE(res.clean()) << res.violations[0].to_string() << "\n"
                             << c.to_ascii();
  }
}

TEST(TrackGen, GeneratesCleanClipsUnderDefaultAndComplex) {
  Rng rng(103);
  for (const char* name : {"default", "complex"}) {
    TrackPatternGenerator gen(TrackGenConfig{}, rules_by_name(name));
    auto clips = gen.generate(10, rng);
    DrcChecker drc(rules_by_name(name));
    for (const auto& c : clips) EXPECT_TRUE(drc.is_clean(c)) << name;
  }
}

TEST(TrackGen, ClipsAreDistinct) {
  Rng rng(107);
  TrackPatternGenerator gen(TrackGenConfig{}, advance_rules());
  auto clips = gen.generate(30, rng);
  EXPECT_EQ(count_unique(clips), 30u);
}

TEST(TrackGen, OutputHasRequestedShape) {
  TrackGenConfig cfg;
  cfg.width = 48;
  cfg.height = 56;
  Rng rng(109);
  TrackPatternGenerator gen(cfg, advance_rules());
  auto clips = gen.generate(3, rng);
  for (const auto& c : clips) {
    EXPECT_EQ(c.width(), 48);
    EXPECT_EQ(c.height(), 56);
    EXPECT_GT(c.count_ones(), 0);
  }
}

TEST(TrackGen, DeterministicForSameSeed) {
  TrackPatternGenerator gen(TrackGenConfig{}, advance_rules());
  Rng a(113), b(113);
  auto ca = gen.generate(5, a);
  auto cb = gen.generate(5, b);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(ca[i], cb[i]);
}

TEST(TrackGen, StarterLibraryIsDiverse) {
  Rng rng(127);
  TrackPatternGenerator gen(TrackGenConfig{}, advance_rules());
  auto clips = gen.generate(20, rng);
  LibraryStats s = library_stats(clips);
  // 20 distinct clips should have near-maximal H2 (paper: 4.32 = log2 20).
  EXPECT_GT(s.h2, 4.0);
  EXPECT_GT(s.h1, 1.0);  // several distinct topology complexities
}

TEST(TrackGen, WidthsComeFromDiscreteSet) {
  Rng rng(131);
  RuleSet rules = advance_rules();
  TrackPatternGenerator gen(TrackGenConfig{}, rules);
  auto clips = gen.generate(10, rng);
  // Every bounded, non-strap horizontal run must be a discrete width.
  DrcChecker drc(rules);
  for (const auto& c : clips) EXPECT_EQ(drc.check(c).count(RuleKind::kDiscreteWidth), 0);
}

TEST(TrackGen, ImpossibleConfigThrowsInsteadOfLooping) {
  TrackGenConfig cfg;
  cfg.width = 16;   // too narrow to place a single legal track with margins
  cfg.height = 16;
  cfg.min_segment = 16;
  RuleSet rules = advance_rules();
  rules.allowed_widths_h = {14};
  rules.min_area = 100000;  // unsatisfiable area rule
  TrackPatternGenerator gen(cfg, rules);
  Rng rng(137);
  EXPECT_THROW(gen.generate(1, rng, /*max_attempts_per_pattern=*/50), Error);
}

TEST(TrackGen, ClipScaledConfigGeneratesCleanSmallClips) {
  // 32px preset + halved rules: the configuration used by the CPU-scale
  // diffusion experiments.
  Rng rng(151);
  RuleSet rules = scale_rules_down(advance_rules(), 2);
  TrackPatternGenerator gen(track_config_for_clip(32), rules);
  auto clips = gen.generate(10, rng);
  DrcChecker drc(rules);
  for (const auto& c : clips) {
    EXPECT_EQ(c.width(), 32);
    EXPECT_TRUE(drc.is_clean(c));
  }
}

TEST(TrackGen, ClipConfigScalesMonotonically) {
  TrackGenConfig c32 = track_config_for_clip(32);
  TrackGenConfig c64 = track_config_for_clip(64);
  EXPECT_LT(c32.min_segment, c64.min_segment);
  EXPECT_LE(c32.max_gap, c64.max_gap);
  EXPECT_THROW(track_config_for_clip(8), Error);
}

TEST(ViolationMask, MarksRegions) {
  DrcChecker drc(default_rules());
  Raster r(30, 30);
  r.fill_rect(Rect{8, 5, 12, 25}, 1);  // width 4 < 6: violation
  DrcResult res = drc.check(r);
  ASSERT_FALSE(res.clean());
  Raster mask = violation_mask(res, 30, 30);
  EXPECT_GT(mask.count_ones(), 0);
  EXPECT_EQ(mask(9, 10), 1);   // inside the offending track
  EXPECT_EQ(mask(25, 25), 0);  // far away
  // Clean result -> empty mask.
  EXPECT_EQ(violation_mask(DrcResult{}, 8, 8).count_ones(), 0);
}

TEST(RandomClips, ProducesNonEmptyVariedClips) {
  Rng rng(139);
  auto corpus = random_rectilinear_corpus(50, 32, 32, rng);
  ASSERT_EQ(corpus.size(), 50u);
  int nonempty = 0;
  for (const auto& c : corpus) {
    EXPECT_EQ(c.width(), 32);
    EXPECT_EQ(c.height(), 32);
    nonempty += c.count_ones() > 0;
  }
  EXPECT_EQ(nonempty, 50);
  EXPECT_GT(count_unique(corpus), 45u);
}

TEST(RandomClips, MostlyViolatesAdvanceRules) {
  // The pretraining corpus must be rule-OBLIVIOUS: under the advance rule
  // set nearly everything should be dirty (this is what creates the
  // pretrain/finetune legality gap the paper measures).
  Rng rng(149);
  auto corpus = random_rectilinear_corpus(100, 64, 64, rng);
  DrcChecker drc(advance_rules());
  int clean = 0;
  for (const auto& c : corpus) clean += drc.is_clean(c);
  EXPECT_LT(clean, 10);
}

}  // namespace
}  // namespace pp
