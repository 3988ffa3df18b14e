// Tests for PCA, farthest-point representative selection (Algorithm 2) and
// the predefined mask sets (Fig. 6).
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "select/masks.hpp"
#include "select/pca.hpp"
#include "select/representative.hpp"

namespace pp {
namespace {

TEST(Pca, RecoversDominantDirection) {
  // Points along direction (1,1,...)/sqrt(d) with small noise.
  Rng rng(301);
  std::size_t n = 60, d = 16;
  std::vector<std::vector<float>> data;
  for (std::size_t i = 0; i < n; ++i) {
    float t = static_cast<float>(rng.normal(0, 3));
    std::vector<float> row(d);
    for (std::size_t j = 0; j < d; ++j)
      row[j] = t + static_cast<float>(rng.normal(0, 0.05));
    data.push_back(row);
  }
  PcaModel m = fit_pca(data, 0.9, 8, rng);
  ASSERT_GE(m.n_components(), 1);
  // First component aligns with the all-ones direction.
  double dot = 0;
  for (float v : m.components[0]) dot += v;
  dot = std::fabs(dot) / std::sqrt(static_cast<double>(d));
  EXPECT_GT(dot, 0.99);
  EXPECT_GE(m.explained_variance(), 0.9);
}

TEST(Pca, ComponentsAreOrthonormal) {
  Rng rng(303);
  std::vector<std::vector<float>> data;
  for (int i = 0; i < 50; ++i) {
    std::vector<float> row(12);
    for (auto& v : row) v = static_cast<float>(rng.normal());
    data.push_back(row);
  }
  PcaModel m = fit_pca(data, 0.99, 6, rng);
  for (int a = 0; a < m.n_components(); ++a)
    for (int b = 0; b <= a; ++b) {
      double dot = 0;
      for (std::size_t t = 0; t < m.components[static_cast<std::size_t>(a)].size(); ++t)
        dot += static_cast<double>(m.components[static_cast<std::size_t>(a)][t]) *
               m.components[static_cast<std::size_t>(b)][t];
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-6);
    }
  // Eigenvalues descending.
  for (int i = 1; i < m.n_components(); ++i)
    EXPECT_LE(m.eigenvalues[static_cast<std::size_t>(i)],
              m.eigenvalues[static_cast<std::size_t>(i - 1)] + 1e-6f);
}

TEST(Pca, ExplainedVarianceTruncation) {
  // Two strong directions, rest noise: 0.5 target keeps fewer components
  // than 0.999.
  Rng rng(305);
  std::vector<std::vector<float>> data;
  for (int i = 0; i < 80; ++i) {
    std::vector<float> row(10, 0.0f);
    float a = static_cast<float>(rng.normal(0, 4));
    float b = static_cast<float>(rng.normal(0, 2));
    row[0] = a;
    row[1] = b;
    for (int j = 2; j < 10; ++j) row[static_cast<std::size_t>(j)] = static_cast<float>(rng.normal(0, 0.05));
    data.push_back(row);
  }
  PcaModel loose = fit_pca(data, 0.5, 8, rng);
  PcaModel tight = fit_pca(data, 0.999, 8, rng);
  EXPECT_LT(loose.n_components(), tight.n_components());
}

TEST(Pca, ConstantDataHasNoComponents) {
  Rng rng(307);
  std::vector<std::vector<float>> data(5, std::vector<float>(8, 3.0f));
  PcaModel m = fit_pca(data, 0.9, 4, rng);
  EXPECT_EQ(m.n_components(), 0);
  EXPECT_LE(m.total_variance, 1e-9);
}

TEST(Pca, RejectsBadInput) {
  Rng rng(309);
  EXPECT_THROW(fit_pca(std::vector<std::vector<float>>{{1.0f}}, 0.9, 4, rng),
               Error);
  std::vector<std::vector<float>> ragged = {{1, 2}, {1}};
  EXPECT_THROW(fit_pca(ragged, 0.9, 4, rng), Error);
}

TEST(Pca, ProjectionDistanceReflectsInputDistance) {
  Rng rng(311);
  std::vector<Raster> clips;
  for (int i = 0; i < 12; ++i) {
    Raster r(16, 16);
    r.fill_rect(Rect{i, 0, i + 4, 16}, 1);
    clips.push_back(r);
  }
  PcaModel m = fit_pca(clips, 0.95, 8, rng);
  auto p0 = m.project(flatten(clips[0]));
  auto p1 = m.project(flatten(clips[1]));
  auto p11 = m.project(flatten(clips[11]));
  auto d = [](const std::vector<float>& a, const std::vector<float>& b) {
    double s = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
      s += (static_cast<double>(a[i]) - b[i]) * (a[i] - b[i]);
    return s;
  };
  EXPECT_LT(d(p0, p1), d(p0, p11));
}

TEST(FarthestPoint, SpreadsSelection) {
  // 1-D scores 0..9: picking 3 must include both extremes whatever the seed.
  std::vector<std::vector<float>> scores;
  for (int i = 0; i < 10; ++i) scores.push_back({static_cast<float>(i)});
  for (int seed = 0; seed < 5; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) + 1);
    auto sel = farthest_point_selection(scores, 3, nullptr, rng);
    ASSERT_EQ(sel.size(), 3u);
    std::set<std::size_t> s(sel.begin(), sel.end());
    EXPECT_TRUE(s.count(0) || s.count(9));
    // After 3 picks on a line both ends are taken.
    EXPECT_TRUE(s.count(0) && s.count(9));
  }
}

TEST(FarthestPoint, RespectsConstraint) {
  std::vector<std::vector<float>> scores;
  for (int i = 0; i < 10; ++i) scores.push_back({static_cast<float>(i)});
  Rng rng(313);
  auto sel = farthest_point_selection(
      scores, 5, [](std::size_t i) { return i % 2 == 0; }, rng);
  ASSERT_EQ(sel.size(), 5u);
  for (std::size_t i : sel) EXPECT_EQ(i % 2, 0u);
}

TEST(FarthestPoint, ReturnsFewerWhenPoolSmall) {
  std::vector<std::vector<float>> scores = {{0.0f}, {1.0f}};
  Rng rng(317);
  auto sel = farthest_point_selection(scores, 10, nullptr, rng);
  EXPECT_EQ(sel.size(), 2u);
  auto none = farthest_point_selection(scores, 3,
                                       [](std::size_t) { return false; }, rng);
  EXPECT_TRUE(none.empty());
}

TEST(Representatives, DensityConstraintHonored) {
  Rng rng(319);
  std::vector<Raster> lib;
  for (int i = 0; i < 6; ++i) {
    Raster r(16, 16);
    r.fill_rect(Rect{0, 0, 4 + i, 16}, 1);  // growing density
    lib.push_back(r);
  }
  RepresentativeConfig cfg;
  cfg.k = 3;
  cfg.max_density = 0.4;
  auto sel = select_representatives(lib, cfg, rng);
  ASSERT_FALSE(sel.empty());
  for (std::size_t i : sel) EXPECT_LE(lib[i].density(), 0.4);
}

TEST(Representatives, FallsBackWhenAllDense) {
  Rng rng(323);
  std::vector<Raster> lib(4, Raster(8, 8, 1));
  lib[1](0, 0) = 0;  // tiny variation so PCA is defined
  RepresentativeConfig cfg;
  cfg.k = 2;
  cfg.max_density = 0.1;  // nothing qualifies
  auto sel = select_representatives(lib, cfg, rng);
  EXPECT_EQ(sel.size(), 2u);  // unconstrained fallback
}

TEST(Representatives, SingletonLibrary) {
  Rng rng(327);
  std::vector<Raster> lib = {Raster(8, 8)};
  auto sel = select_representatives(lib, RepresentativeConfig{}, rng);
  ASSERT_EQ(sel.size(), 1u);
  EXPECT_EQ(sel[0], 0u);
}

TEST(Masks, TenMasksQuarterArea) {
  auto masks = all_masks(64, 64);
  ASSERT_EQ(masks.size(), 10u);
  for (const auto& m : masks) {
    EXPECT_EQ(m.width(), 64);
    EXPECT_EQ(m.height(), 64);
    EXPECT_NEAR(m.density(), 0.25, 0.02);  // paper: ~25% of the image
  }
}

TEST(Masks, DefaultSetCoversImage) {
  auto masks = make_mask_set(MaskSet::kDefault, 32, 32);
  Raster cover(32, 32);
  for (const auto& m : masks) cover = Raster::logical_or(cover, m);
  EXPECT_EQ(cover.count_ones(), 32 * 32);
}

TEST(Masks, HorizontalSetCoversImage) {
  auto masks = make_mask_set(MaskSet::kHorizontal, 32, 32);
  Raster cover(32, 32);
  for (const auto& m : masks) cover = Raster::logical_or(cover, m);
  EXPECT_EQ(cover.count_ones(), 32 * 32);
  // Bands span the full width.
  for (const auto& m : masks)
    for (int y = 0; y < 32; ++y) {
      bool any = false, all = true;
      for (int x = 0; x < 32; ++x) {
        any = any || m(x, y);
        all = all && m(x, y);
      }
      EXPECT_EQ(any, all) << "horizontal band must be full-width";
    }
}

TEST(Masks, RejectsTinyCanvas) {
  EXPECT_THROW(make_mask_set(MaskSet::kDefault, 4, 4), Error);
}

}  // namespace
}  // namespace pp
