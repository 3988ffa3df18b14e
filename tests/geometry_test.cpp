// Tests for rectangles, rasters, connected components and polygon tracing.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "geometry/polygon.hpp"
#include "geometry/raster.hpp"
#include "geometry/rect.hpp"

namespace pp {
namespace {

TEST(Rect, BasicDimensions) {
  Rect r{2, 3, 10, 7};
  EXPECT_EQ(r.width(), 8);
  EXPECT_EQ(r.height(), 4);
  EXPECT_EQ(r.area(), 32);
  EXPECT_FALSE(r.empty());
}

TEST(Rect, EmptyWhenDegenerate) {
  EXPECT_TRUE((Rect{5, 5, 5, 9}).empty());
  EXPECT_TRUE((Rect{5, 5, 4, 9}).empty());
  EXPECT_TRUE(Rect{}.empty());
}

TEST(Rect, ContainsHalfOpenSemantics) {
  Rect r{0, 0, 4, 4};
  EXPECT_TRUE(r.contains(0, 0));
  EXPECT_TRUE(r.contains(3, 3));
  EXPECT_FALSE(r.contains(4, 3));
  EXPECT_FALSE(r.contains(3, 4));
  EXPECT_FALSE(r.contains(-1, 0));
}

TEST(Rect, IntersectionAndIntersects) {
  Rect a{0, 0, 10, 10}, b{5, 5, 15, 15};
  EXPECT_TRUE(a.intersects(b));
  EXPECT_EQ(a.intersection(b), (Rect{5, 5, 10, 10}));
  Rect c{10, 0, 20, 10};  // touching edge: half-open => no overlap
  EXPECT_FALSE(a.intersects(c));
  EXPECT_TRUE(a.intersection(c).empty());
}

TEST(Rect, UnitedIgnoresEmpty) {
  Rect a{1, 1, 3, 3};
  EXPECT_EQ(a.united(Rect{}), a);
  EXPECT_EQ(Rect{}.united(a), a);
  EXPECT_EQ(a.united(Rect{5, 0, 6, 2}), (Rect{1, 0, 6, 3}));
}

TEST(Rect, Inflated) {
  Rect a{4, 4, 6, 6};
  EXPECT_EQ(a.inflated(2), (Rect{2, 2, 8, 8}));
  EXPECT_TRUE(a.inflated(-1).empty());
}

TEST(Raster, ConstructionAndFill) {
  Raster r(8, 4);
  EXPECT_EQ(r.width(), 8);
  EXPECT_EQ(r.height(), 4);
  EXPECT_EQ(r.count_ones(), 0);
  r.fill_rect(Rect{1, 1, 3, 3}, 1);
  EXPECT_EQ(r.count_ones(), 4);
  EXPECT_EQ(r(1, 1), 1);
  EXPECT_EQ(r(0, 0), 0);
}

TEST(Raster, FillRectClipsToBounds) {
  Raster r(4, 4);
  r.fill_rect(Rect{-5, -5, 100, 2}, 1);
  EXPECT_EQ(r.count_ones(), 8);  // two full rows
}

TEST(Raster, CheckedAccessThrows) {
  Raster r(4, 4);
  EXPECT_THROW(r.at(4, 0), Error);
  EXPECT_THROW(r.at(0, -1), Error);
  EXPECT_NO_THROW(r.at(3, 3));
  EXPECT_THROW(r.set(-1, 0, 1), Error);
}

TEST(Raster, AtOrZeroOutside) {
  Raster r(2, 2, 1);
  EXPECT_EQ(r.at_or_zero(-1, 0), 0);
  EXPECT_EQ(r.at_or_zero(0, 5), 0);
  EXPECT_EQ(r.at_or_zero(1, 1), 1);
}

TEST(Raster, AsciiRoundTrip) {
  const std::string art =
      "..##\n"
      "..##\n"
      "#...\n";
  Raster r = Raster::from_ascii(art);
  EXPECT_EQ(r.width(), 4);
  EXPECT_EQ(r.height(), 3);
  EXPECT_EQ(r.to_ascii(), art);
}

TEST(Raster, FromAsciiRejectsRagged) {
  EXPECT_THROW(Raster::from_ascii("##\n#\n"), Error);
}

TEST(Raster, CropAndPaste) {
  Raster r = Raster::from_ascii(
      "####\n"
      "#..#\n"
      "####\n");
  Raster c = r.crop(Rect{1, 1, 3, 2});
  EXPECT_EQ(c.width(), 2);
  EXPECT_EQ(c.height(), 1);
  EXPECT_EQ(c.count_ones(), 0);
  Raster dst(4, 3);
  dst.paste(r.crop(Rect{0, 0, 2, 2}), 2, 1);
  EXPECT_EQ(dst(2, 1), 1);
  EXPECT_EQ(dst(3, 2), 0);
}

TEST(Raster, PasteClipsOutOfBounds) {
  Raster dst(3, 3);
  Raster src(2, 2, 1);
  dst.paste(src, 2, 2);  // only (2,2) lands inside
  EXPECT_EQ(dst.count_ones(), 1);
  dst.paste(src, -1, -1);
  EXPECT_EQ(dst(0, 0), 1);
}

TEST(Raster, LogicalOps) {
  Raster a = Raster::from_ascii("##..\n");
  Raster b = Raster::from_ascii(".##.\n");
  EXPECT_EQ(Raster::logical_and(a, b).to_ascii(), ".#..\n");
  EXPECT_EQ(Raster::logical_or(a, b).to_ascii(), "###.\n");
  EXPECT_EQ(Raster::logical_xor(a, b).to_ascii(), "#.#.\n");
  EXPECT_EQ(Raster::hamming(a, b), 2);
}

TEST(Raster, LogicalOpsRejectShapeMismatch) {
  Raster a(2, 2), b(3, 2);
  EXPECT_THROW(Raster::logical_and(a, b), Error);
  EXPECT_THROW(Raster::hamming(a, b), Error);
}

TEST(Raster, TransposeInvolution) {
  Rng rng(23);
  Raster r(7, 5);
  for (auto& v : r.data()) v = rng.bernoulli(0.4);
  EXPECT_EQ(r.transposed().transposed(), r);
  EXPECT_EQ(r.transposed().width(), 5);
  EXPECT_EQ(r.transposed()(2, 3), r(3, 2));
}

TEST(Raster, HashDiscriminatesAndIsStable) {
  Raster a = Raster::from_ascii("#.\n.#\n");
  Raster b = Raster::from_ascii(".#\n#.\n");
  EXPECT_EQ(a.hash(), Raster::from_ascii("#.\n.#\n").hash());
  EXPECT_NE(a.hash(), b.hash());
}

TEST(Raster, DensityOfEmptyAndFull) {
  EXPECT_DOUBLE_EQ(Raster().density(), 0.0);
  EXPECT_DOUBLE_EQ(Raster(4, 4, 1).density(), 1.0);
  EXPECT_DOUBLE_EQ(Raster(4, 4, 0).density(), 0.0);
}

TEST(Components, LabelsDisjointShapes) {
  Raster r = Raster::from_ascii(
      "##..#\n"
      "##..#\n"
      ".....\n"
      "###..\n");
  ComponentMap cm = label_components(r);
  ASSERT_EQ(cm.components.size(), 3u);
  long long total = 0;
  for (const auto& c : cm.components) total += c.area;
  EXPECT_EQ(total, r.count_ones());
}

TEST(Components, FourConnectivityNotDiagonal) {
  Raster r = Raster::from_ascii(
      "#.\n"
      ".#\n");
  EXPECT_EQ(label_components(r).components.size(), 2u);
}

TEST(Components, BoundingBoxes) {
  Raster r = Raster::from_ascii(
      "....\n"
      ".##.\n"
      ".##.\n"
      "....\n");
  ComponentMap cm = label_components(r);
  ASSERT_EQ(cm.components.size(), 1u);
  EXPECT_EQ(cm.components[0].bbox, (Rect{1, 1, 3, 3}));
  EXPECT_EQ(cm.components[0].area, 4);
}

TEST(Components, EmptyRaster) {
  EXPECT_TRUE(label_components(Raster(5, 5)).components.empty());
}

TEST(Boundary, RectangleHasFourVertices) {
  Raster r(8, 8);
  r.fill_rect(Rect{2, 3, 6, 7}, 1);
  auto verts = trace_boundary(r, 3, 4);
  EXPECT_EQ(verts.size(), 4u);
}

TEST(Boundary, LShapeHasSixVertices) {
  Raster r = Raster::from_ascii(
      "#...\n"
      "#...\n"
      "###.\n");
  auto verts = trace_boundary(r, 0, 0);
  EXPECT_EQ(verts.size(), 6u);
}

TEST(Boundary, SeedMustBeMetal) {
  Raster r(4, 4);
  EXPECT_THROW(trace_boundary(r, 1, 1), Error);
}

TEST(RectDecompose, CoversExactly) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    Raster r(16, 16);
    for (int i = 0; i < 4; ++i) {
      int x = rng.uniform_int(0, 12), y = rng.uniform_int(0, 12);
      r.fill_rect(Rect{x, y, x + rng.uniform_int(1, 4), y + rng.uniform_int(1, 4)}, 1);
    }
    auto rects = decompose_rectangles(r);
    Raster rebuilt(16, 16);
    long long area = 0;
    for (const Rect& rect : rects) {
      // Disjointness: no pixel painted twice.
      for (int y = rect.y0; y < rect.y1; ++y)
        for (int x = rect.x0; x < rect.x1; ++x) {
          EXPECT_EQ(rebuilt(x, y), 0) << "overlapping decomposition";
          rebuilt(x, y) = 1;
        }
      area += rect.area();
    }
    EXPECT_EQ(rebuilt, r);
    EXPECT_EQ(area, r.count_ones());
  }
}

TEST(MaxRects, SingleRectangle) {
  Raster r(10, 10);
  r.fill_rect(Rect{2, 3, 7, 9}, 1);
  auto rects = maximal_rectangles(r);
  ASSERT_EQ(rects.size(), 1u);
  EXPECT_EQ(rects[0], (Rect{2, 3, 7, 9}));
}

TEST(MaxRects, PlusSignHasTwo) {
  Raster r = Raster::from_ascii(
      ".#.\n"
      "###\n"
      ".#.\n");
  auto rects = maximal_rectangles(r);
  ASSERT_EQ(rects.size(), 2u);  // vertical bar and horizontal bar
}

TEST(MaxRects, LShapeHasTwo) {
  Raster r = Raster::from_ascii(
      "#..\n"
      "#..\n"
      "###\n");
  EXPECT_EQ(maximal_rectangles(r).size(), 2u);
}

TEST(MaxRects, TracksWithStrap) {
  // Two full-height tracks joined by a strap: tracks + the spanning slab.
  Raster r(20, 20);
  r.fill_rect(Rect{2, 0, 5, 20}, 1);
  r.fill_rect(Rect{12, 0, 15, 20}, 1);
  r.fill_rect(Rect{5, 8, 12, 12}, 1);
  auto rects = maximal_rectangles(r);
  ASSERT_EQ(rects.size(), 3u);
  bool found_slab = false;
  for (const Rect& rect : rects)
    if (rect == (Rect{2, 8, 15, 12})) found_slab = true;
  EXPECT_TRUE(found_slab);
}

TEST(MaxRects, EmptyAndFull) {
  EXPECT_TRUE(maximal_rectangles(Raster(5, 5)).empty());
  auto rects = maximal_rectangles(Raster(5, 5, 1));
  ASSERT_EQ(rects.size(), 1u);
  EXPECT_EQ(rects[0], (Rect{0, 0, 5, 5}));
}

// Property: every maximal rectangle is fully metal, cannot be extended in
// any direction, all are distinct, and together they cover every metal
// pixel.
class MaxRectsProperty : public ::testing::TestWithParam<int> {};

TEST_P(MaxRectsProperty, DefinitionHolds) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 48271 + 11);
  Raster r(20, 20);
  int k = rng.uniform_int(1, 6);
  for (int i = 0; i < k; ++i) {
    int x = rng.uniform_int(0, 15), y = rng.uniform_int(0, 15);
    r.fill_rect(Rect{x, y, x + rng.uniform_int(1, 5), y + rng.uniform_int(1, 5)}, 1);
  }
  auto rects = maximal_rectangles(r);
  auto all_metal = [&](const Rect& q) {
    for (int y = q.y0; y < q.y1; ++y)
      for (int x = q.x0; x < q.x1; ++x)
        if (!r(x, y)) return false;
    return true;
  };
  Raster covered(20, 20);
  for (std::size_t i = 0; i < rects.size(); ++i) {
    const Rect& q = rects[i];
    EXPECT_TRUE(all_metal(q));
    // No extension in any direction (extensions beyond the border are
    // impossible by definition).
    if (q.x0 > 0) {
      EXPECT_FALSE(all_metal(Rect{q.x0 - 1, q.y0, q.x0, q.y1}));
    }
    if (q.x1 < 20) {
      EXPECT_FALSE(all_metal(Rect{q.x1, q.y0, q.x1 + 1, q.y1}));
    }
    if (q.y0 > 0) {
      EXPECT_FALSE(all_metal(Rect{q.x0, q.y0 - 1, q.x1, q.y0}));
    }
    if (q.y1 < 20) {
      EXPECT_FALSE(all_metal(Rect{q.x0, q.y1, q.x1, q.y1 + 1}));
    }
    covered.fill_rect(q, 1);
    for (std::size_t j = 0; j < i; ++j) EXPECT_FALSE(rects[i] == rects[j]);
  }
  EXPECT_EQ(covered, r);
}

INSTANTIATE_TEST_SUITE_P(Random, MaxRectsProperty, ::testing::Range(0, 30));

}  // namespace
}  // namespace pp
