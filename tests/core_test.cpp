// Tests for the PatternPaint framework: library, config presets, and the
// end-to-end pipeline at miniature scale (integration tests).
#include <gtest/gtest.h>

#include <filesystem>

#include "common/error.hpp"
#include "core/config.hpp"
#include "core/library.hpp"
#include "core/patternpaint.hpp"
#include "expand/expander.hpp"
#include "patterngen/track_generator.hpp"

namespace pp {
namespace {

TEST(Library, DeduplicatesAndCounts) {
  PatternLibrary lib;
  Raster a(8, 8);
  a.fill_rect(Rect{1, 1, 4, 7}, 1);
  Raster b = a;
  b(7, 7) = 1;
  EXPECT_TRUE(lib.add(a));
  EXPECT_FALSE(lib.add(a));
  EXPECT_TRUE(lib.add(b));
  EXPECT_EQ(lib.size(), 2u);
  EXPECT_TRUE(lib.contains(a));
  EXPECT_EQ(lib.add_all({a, b, Raster(8, 8, 1)}), 1u);
  LibraryStats s = lib.stats();
  EXPECT_EQ(s.total, 3u);
  EXPECT_EQ(s.unique, 3u);
}

TEST(Library, HashCollisionKeepsDistinctPatterns) {
  // Force every clip into one hash bucket: dedup must fall back to content
  // comparison instead of silently dropping distinct patterns.
  PatternLibrary lib([](const Raster&) { return 42ULL; });
  Raster a(8, 8);
  a.fill_rect(Rect{0, 0, 4, 8}, 1);
  Raster b(8, 8);
  b.fill_rect(Rect{4, 0, 8, 8}, 1);
  EXPECT_TRUE(lib.add(a));
  EXPECT_TRUE(lib.add(b));   // collides with a, but is a different pattern
  EXPECT_FALSE(lib.add(a));  // true duplicate still rejected
  EXPECT_FALSE(lib.add(b));
  EXPECT_EQ(lib.size(), 2u);
  EXPECT_TRUE(lib.contains(a));
  EXPECT_TRUE(lib.contains(b));
  EXPECT_FALSE(lib.contains(Raster(8, 8)));
  ASSERT_TRUE(lib.index_of(b).has_value());
  EXPECT_EQ(*lib.index_of(a), 0u);
  EXPECT_EQ(*lib.index_of(b), 1u);
}

TEST(Config, PresetsDiffer) {
  PatternPaintConfig s1 = sd1_config();
  PatternPaintConfig s2 = sd2_config();
  EXPECT_EQ(s1.name, "sd1");
  EXPECT_EQ(s2.name, "sd2");
  EXPECT_LT(s1.ddpm.unet.base_channels, s2.ddpm.unet.base_channels);
  EXPECT_FALSE(s1.ddpm.cosine);
  EXPECT_TRUE(s2.ddpm.cosine);
  EXPECT_EQ(config_by_name("sd1").name, "sd1");
  EXPECT_EQ(config_by_name("sd2").name, "sd2");
  EXPECT_THROW(config_by_name("sd3"), Error);
}

/// Miniature PatternPaint: 32px clips, tiny model, few steps — exercises
/// the full pipeline in seconds.
PatternPaintConfig mini_config() {
  PatternPaintConfig cfg = sd1_config();
  cfg.clip_size = 32;
  cfg.ddpm.unet.base_channels = 8;
  cfg.ddpm.unet.time_dim = 16;
  cfg.ddpm.T = 60;
  cfg.ddpm.sample_steps = 6;
  cfg.pretrain_corpus = 24;
  cfg.pretrain_steps = 30;
  cfg.pretrain_batch = 4;
  cfg.finetune_steps = 20;
  cfg.finetune_batch = 4;
  cfg.prior_samples = 4;
  cfg.representatives = 4;
  cfg.samples_per_iteration = 8;
  return cfg;
}

/// Scaled-down rules so clips fit in 32px.
RuleSet mini_rules() {
  RuleSet r = default_rules();
  r.min_width_h = 3;
  r.min_width_v = 3;
  r.min_space_h = 3;
  r.min_space_v = 3;
  r.min_area = 20;
  return r;
}

std::vector<Raster> mini_starters(int n, std::uint64_t seed) {
  TrackGenConfig tg;
  tg.width = 32;
  tg.height = 32;
  tg.min_segment = 10;
  tg.max_segment = 26;
  tg.min_gap = 3;
  tg.max_gap = 8;
  tg.min_strap = 3;
  tg.max_strap = 6;
  tg.max_extra_space = 5;
  Rng rng(seed);
  TrackPatternGenerator gen(tg, mini_rules());
  return gen.generate(static_cast<std::size_t>(n), rng);
}

class MiniPipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // One shared pretrained+finetuned pipeline for all integration tests
    // (pretraining is the expensive part).
    pp_ = new PatternPaint(mini_config(), mini_rules(), /*seed=*/12345);
    starters_ = new std::vector<Raster>(mini_starters(6, 777));
    pp_->pretrain();
    pp_->finetune(*starters_);
  }
  static void TearDownTestSuite() {
    delete pp_;
    delete starters_;
    pp_ = nullptr;
    starters_ = nullptr;
  }
  static PatternPaint* pp_;
  static std::vector<Raster>* starters_;
};

PatternPaint* MiniPipeline::pp_ = nullptr;
std::vector<Raster>* MiniPipeline::starters_ = nullptr;

TEST_F(MiniPipeline, StartersSeedTheLibrary) {
  EXPECT_GE(pp_->library().size(), starters_->size());
  for (const auto& s : *starters_) EXPECT_TRUE(pp_->library().contains(s));
}

TEST_F(MiniPipeline, InpaintVariationsShapeAndKnownRegion) {
  auto masks = all_masks(32, 32);
  auto outs = pp_->inpaint_variations((*starters_)[0], masks[0], 3);
  ASSERT_EQ(outs.size(), 3u);
  for (const auto& o : outs) {
    EXPECT_EQ(o.width(), 32);
    EXPECT_EQ(o.height(), 32);
    // Unmasked pixels must be preserved exactly.
    for (int y = 0; y < 32; ++y)
      for (int x = 0; x < 32; ++x)
        if (!masks[0](x, y)) {
          EXPECT_EQ(o(x, y), (*starters_)[0](x, y));
        }
  }
}

TEST_F(MiniPipeline, FinishSampleClassifies) {
  GenerationRecord rec =
      pp_->finish_sample((*starters_)[1], (*starters_)[1]);
  // A clean starter denoised against itself stays legal.
  EXPECT_TRUE(rec.legal);
  EXPECT_EQ(rec.denoised, (*starters_)[1]);
  // Garbage raw sample is not legal.
  Rng noise(1);
  Raster junk(32, 32);
  for (auto& v : junk.data()) v = noise.bernoulli(0.5);
  GenerationRecord bad = pp_->finish_sample(junk, (*starters_)[1]);
  EXPECT_FALSE(bad.legal);
}

TEST_F(MiniPipeline, InitialGenerationProducesRecords) {
  std::size_t lib_before = pp_->library().size();
  std::size_t gen_before = pp_->total_generated();
  auto records = pp_->initial_generation(/*variations_per_mask=*/1);
  // n starters x 10 masks x 1 variation.
  EXPECT_EQ(records.size(), starters_->size() * 10);
  EXPECT_EQ(pp_->total_generated() - gen_before, records.size());
  for (const auto& r : records) {
    EXPECT_EQ(r.raw.width(), 32);
    EXPECT_EQ(r.denoised.width(), 32);
  }
  EXPECT_GE(pp_->library().size(), lib_before);
}

TEST_F(MiniPipeline, IterationRoundGrowsCounters) {
  std::size_t gen_before = pp_->total_generated();
  auto records = pp_->iteration_round(8);
  EXPECT_FALSE(records.empty());
  EXPECT_GT(pp_->total_generated(), gen_before);
}

TEST_F(MiniPipeline, IterationRoundHitsExactSampleBudget) {
  // Budgets that do not divide the representative count must not undershoot
  // (the old `samples / sel.size()` truncation) nor overshoot: the
  // remainder is spread across the selected representatives.
  for (int samples : {10, 7, 3, 1}) {
    std::size_t gen_before = pp_->total_generated();
    auto records = pp_->iteration_round(samples);
    EXPECT_EQ(records.size(), static_cast<std::size_t>(samples));
    EXPECT_EQ(pp_->total_generated() - gen_before,
              static_cast<std::size_t>(samples));
  }
}

TEST_F(MiniPipeline, FinishSamplesMatchesInputOrder) {
  // Batch finish returns one record per input, in order, with the right
  // template attached.
  std::vector<Raster> raws{(*starters_)[0], (*starters_)[1], (*starters_)[2]};
  std::vector<Raster> tmpls = raws;
  auto records = pp_->finish_samples(raws, tmpls);
  ASSERT_EQ(records.size(), 3u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    // Input order is preserved through the parallel fan-out (raws are
    // pairwise distinct, so a slot swap would be visible here).
    EXPECT_EQ(records[i].raw, raws[i]);
    EXPECT_EQ(records[i].tmpl, tmpls[i]);
    EXPECT_EQ(records[i].denoised.width(), 32);
  }
  // finish_samples is pure: no library or counter side effects.
  std::size_t gen_before = pp_->total_generated();
  pp_->finish_samples(raws, tmpls);
  EXPECT_EQ(pp_->total_generated(), gen_before);
}

/// Full (untrained) generation pass under a fixed seed, summarized as the
/// ordered library content hashes plus the cumulative counters.
std::vector<std::uint64_t> generation_signature(std::uint64_t seed) {
  PatternPaintConfig cfg = mini_config();
  cfg.ddpm.sample_steps = 4;  // keep the two runs cheap
  PatternPaint pp(cfg, mini_rules(), seed);
  pp.set_starters(mini_starters(2, 777));
  pp.initial_generation(/*variations_per_mask=*/1);
  pp.iteration_round(5);
  std::vector<std::uint64_t> sig;
  for (const auto& c : pp.library().clips()) sig.push_back(c.hash());
  sig.push_back(pp.total_generated());
  sig.push_back(pp.total_legal());
  return sig;
}

TEST(Determinism, SameSeedReproducesIdenticalLibrary) {
  // Two independent pipelines with the same seed must agree bitwise on the
  // generated library and every counter — including across the parallel
  // finish fan-out (thread-count invariance across processes is covered by
  // the determinism_pp_threads ctest, which re-runs this kind of pipeline
  // under PP_THREADS=1 and PP_THREADS=8 and diffs the output).
  EXPECT_EQ(generation_signature(99), generation_signature(99));
}

TEST_F(MiniPipeline, OutpaintGrowsToTargetAndPreservesSeed) {
  const Raster& seed = (*starters_)[0];
  Raster grown = expand::expand_layout(*pp_, seed, 48, 64, 0).canvas;
  EXPECT_EQ(grown.width(), 48);
  EXPECT_EQ(grown.height(), 64);
  // Seed pixels are immutable.
  for (int y = 0; y < seed.height(); ++y)
    for (int x = 0; x < seed.width(); ++x)
      EXPECT_EQ(grown(x, y), seed(x, y));
  EXPECT_GT(grown.count_ones(), seed.count_ones() / 2);
}

TEST_F(MiniPipeline, OutpaintExactClipSizeIsIdentityOnSeedRegion) {
  // Target == clip size with a full-clip seed: nothing to generate.
  const Raster& seed = (*starters_)[1];
  Raster grown = expand::expand_layout(*pp_, seed, 32, 32, 0).canvas;
  EXPECT_EQ(grown, seed);
}

TEST_F(MiniPipeline, OutpaintRejectsBadTargets) {
  const Raster& seed = (*starters_)[0];
  // target < clip
  EXPECT_THROW(expand::expand_layout(*pp_, seed, 16, 64, 0), Error);
  Raster big(64, 64);
  // seed > clip
  EXPECT_THROW(expand::expand_layout(*pp_, big, 96, 96, 0), Error);
}

TEST(PatternPaintErrors, GuardsMisuse) {
  PatternPaint pp(mini_config(), mini_rules(), 1);
  EXPECT_THROW(pp.initial_generation(1), Error);       // no starters
  EXPECT_THROW(pp.iteration_round(4), Error);          // empty library
  EXPECT_THROW(pp.finetune(mini_starters(2, 3)), Error);  // not pretrained
  EXPECT_THROW(pp.set_starters({}), Error);
  EXPECT_THROW(pp.set_starters({Raster(16, 16)}), Error);  // wrong size
}

TEST(PatternPaintCache, PretrainCheckpointReused) {
  namespace fs = std::filesystem;
  auto dir = fs::temp_directory_path() / "pp_core_cache";
  fs::create_directories(dir);
  std::string path = (dir / "pre.bin").string();
  PatternPaintConfig cfg = mini_config();
  cfg.pretrain_steps = 10;
  {
    PatternPaint pp(cfg, mini_rules(), 5);
    pp.pretrain(path);
    EXPECT_TRUE(fs::exists(path));
  }
  {
    // Second instance loads instead of retraining (fast) and can finetune.
    PatternPaint pp(cfg, mini_rules(), 6);
    pp.pretrain(path);
    pp.finetune(mini_starters(2, 9));
    SUCCEED();
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace pp
