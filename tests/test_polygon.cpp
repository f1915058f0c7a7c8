#include "geom/polygon.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace pao::geom {
namespace {

Area ringPerimeter(const BoundaryRing& ring) {
  Area p = 0;
  for (const BoundaryEdge& e : ring) p += e.length();
  return p;
}

bool ringClosed(const BoundaryRing& ring) {
  for (std::size_t i = 0; i < ring.size(); ++i) {
    if (ring[i].to != ring[(i + 1) % ring.size()].from) return false;
  }
  return true;
}

TEST(UnionSlabs, SingleRect) {
  const std::vector<Rect> slabs = unionSlabs({{0, 0, 10, 10}});
  ASSERT_EQ(slabs.size(), 1u);
  EXPECT_EQ(slabs[0], Rect(0, 0, 10, 10));
}

TEST(UnionSlabs, OverlapCountedOnce) {
  EXPECT_EQ(unionArea({{0, 0, 10, 10}, {5, 0, 15, 10}}), 150);
  EXPECT_EQ(unionArea({{0, 0, 10, 10}, {0, 0, 10, 10}}), 100);
}

TEST(UnionSlabs, DisjointRectsKept) {
  const std::vector<Rect> slabs =
      unionSlabs({{0, 0, 10, 10}, {20, 20, 30, 30}});
  EXPECT_EQ(slabs.size(), 2u);
  EXPECT_EQ(unionArea({{0, 0, 10, 10}, {20, 20, 30, 30}}), 200);
}

TEST(UnionSlabs, VerticalMergeProducesCanonicalSlabs) {
  // Two stacked rects with identical x-span merge into one slab.
  const std::vector<Rect> slabs =
      unionSlabs({{0, 0, 10, 10}, {0, 10, 10, 20}});
  ASSERT_EQ(slabs.size(), 1u);
  EXPECT_EQ(slabs[0], Rect(0, 0, 10, 20));
}

TEST(UnionSlabs, LShape) {
  // L: vertical bar [0,10]x[0,30] + horizontal foot [0,30]x[0,10].
  const std::vector<Rect> slabs =
      unionSlabs({{0, 0, 10, 30}, {0, 0, 30, 10}});
  EXPECT_EQ(unionArea({{0, 0, 10, 30}, {0, 0, 30, 10}}), 500);
  ASSERT_EQ(slabs.size(), 2u);
}

TEST(UnionSlabs, ZeroAreaRectsIgnored) {
  EXPECT_TRUE(unionSlabs({{0, 0, 0, 10}, {5, 5, 5, 5}}).empty());
}

TEST(ConnectedComponents, TouchingCounts) {
  const auto comps = connectedComponents(
      {{0, 0, 10, 10}, {10, 0, 20, 10}, {100, 100, 110, 110}});
  EXPECT_EQ(comps.size(), 2u);
}

TEST(ConnectedComponents, CornerTouchConnects) {
  const auto comps =
      connectedComponents({{0, 0, 10, 10}, {10, 10, 20, 20}});
  EXPECT_EQ(comps.size(), 1u);
}

TEST(UnionBoundary, SquareHasFourEdges) {
  const auto rings = unionBoundary({{0, 0, 100, 100}});
  ASSERT_EQ(rings.size(), 1u);
  EXPECT_EQ(rings[0].size(), 4u);
  EXPECT_TRUE(ringClosed(rings[0]));
  EXPECT_EQ(ringPerimeter(rings[0]), 400);
}

TEST(UnionBoundary, RectRingStartsAtTheBottomEdge) {
  // One counter-clockwise ring from the lower-left corner, for a lone rect
  // and for a rect that contains every other input alike.
  const BoundaryRing want = {{{0, 0}, {100, 0}},
                             {{100, 0}, {100, 50}},
                             {{100, 50}, {0, 50}},
                             {{0, 50}, {0, 0}}};
  for (const std::vector<Rect>& rects :
       {std::vector<Rect>{{0, 0, 100, 50}},
        std::vector<Rect>{{10, 10, 20, 20}, {0, 0, 100, 50}, {0, 0, 100, 50}},
        std::vector<Rect>{{0, 0, 100, 50}, {0, 0, 100, 10}}}) {
    const auto rings = unionBoundary(rects);
    ASSERT_EQ(rings.size(), 1u);
    EXPECT_EQ(rings[0], want);
  }
  EXPECT_TRUE(unionBoundary({{0, 0, 0, 50}}).empty());
}

TEST(UnionBoundary, MergedRectsHaveMergedBoundary) {
  // Two abutting squares form a 200x100 rect: still 4 edges.
  const auto rings = unionBoundary({{0, 0, 100, 100}, {100, 0, 200, 100}});
  ASSERT_EQ(rings.size(), 1u);
  EXPECT_EQ(rings[0].size(), 4u);
  EXPECT_EQ(ringPerimeter(rings[0]), 600);
}

TEST(UnionBoundary, LShapeHasSixEdges) {
  const auto rings = unionBoundary({{0, 0, 10, 30}, {0, 0, 30, 10}});
  ASSERT_EQ(rings.size(), 1u);
  EXPECT_EQ(rings[0].size(), 6u);
  EXPECT_TRUE(ringClosed(rings[0]));
  EXPECT_EQ(ringPerimeter(rings[0]), 120);
}

TEST(UnionBoundary, PlusShapeHasTwelveEdges) {
  const auto rings = unionBoundary(
      {{10, 0, 20, 30}, {0, 10, 30, 20}});
  ASSERT_EQ(rings.size(), 1u);
  EXPECT_EQ(rings[0].size(), 12u);
  EXPECT_TRUE(ringClosed(rings[0]));
}

TEST(UnionBoundary, HoleProducesSecondRing) {
  // A square ring: outer 0..40, inner hole 10..30.
  const std::vector<Rect> frame = {
      {0, 0, 40, 10}, {0, 30, 40, 40}, {0, 10, 10, 30}, {30, 10, 40, 30}};
  const auto rings = unionBoundary(frame);
  ASSERT_EQ(rings.size(), 2u);
  // One ring has perimeter 160 (outer), the other 80 (hole).
  std::vector<Area> per{ringPerimeter(rings[0]), ringPerimeter(rings[1])};
  std::sort(per.begin(), per.end());
  EXPECT_EQ(per[0], 80);
  EXPECT_EQ(per[1], 160);
}

TEST(UnionBoundary, TwoComponentsTwoRings) {
  const auto rings =
      unionBoundary({{0, 0, 10, 10}, {100, 100, 120, 120}});
  EXPECT_EQ(rings.size(), 2u);
}

TEST(UnionBoundary, InteriorOnLeftOrientation) {
  // For a single square the ring must be counter-clockwise: a bottom edge
  // (y = 0) runs +x, the right edge runs +y, etc.
  const auto rings = unionBoundary({{0, 0, 100, 100}});
  ASSERT_EQ(rings.size(), 1u);
  for (const BoundaryEdge& e : rings[0]) {
    if (e.horizontal() && e.from.y == 0) {
      EXPECT_GT(e.to.x, e.from.x);
    }
    if (e.horizontal() && e.from.y == 100) {
      EXPECT_LT(e.to.x, e.from.x);
    }
    if (!e.horizontal() && e.from.x == 0) {
      EXPECT_LT(e.to.y, e.from.y);
    }
    if (!e.horizontal() && e.from.x == 100) {
      EXPECT_GT(e.to.y, e.from.y);
    }
  }
}

TEST(MaxRects, SingleRectIsItself) {
  const auto rects = maxRects({{0, 0, 10, 10}});
  ASSERT_EQ(rects.size(), 1u);
  EXPECT_EQ(rects[0], Rect(0, 0, 10, 10));
}

TEST(MaxRects, LShapeHasTwoMaxRects) {
  const auto rects = maxRects({{0, 0, 10, 30}, {0, 0, 30, 10}});
  ASSERT_EQ(rects.size(), 2u);
  EXPECT_TRUE(std::find(rects.begin(), rects.end(), Rect(0, 0, 10, 30)) !=
              rects.end());
  EXPECT_TRUE(std::find(rects.begin(), rects.end(), Rect(0, 0, 30, 10)) !=
              rects.end());
}

TEST(MaxRects, PlusShapeHasThreeMaxRects) {
  const auto rects = maxRects({{10, 0, 20, 30}, {0, 10, 30, 20}});
  ASSERT_EQ(rects.size(), 2u);  // vertical bar + horizontal bar are maximal
  EXPECT_TRUE(std::find(rects.begin(), rects.end(), Rect(10, 0, 20, 30)) !=
              rects.end());
  EXPECT_TRUE(std::find(rects.begin(), rects.end(), Rect(0, 10, 30, 20)) !=
              rects.end());
}

TEST(MaxRects, TShape) {
  // T: top bar [0,30]x[20,30], stem [10,20]x[0,30].
  const auto rects = maxRects({{0, 20, 30, 30}, {10, 0, 20, 30}});
  ASSERT_EQ(rects.size(), 2u);
  EXPECT_TRUE(std::find(rects.begin(), rects.end(), Rect(0, 20, 30, 30)) !=
              rects.end());
  EXPECT_TRUE(std::find(rects.begin(), rects.end(), Rect(10, 0, 20, 30)) !=
              rects.end());
}

TEST(MaxRects, OverlappingRectsExtend) {
  // Two overlapping squares: the maximal rects are the two squares, not the
  // overlap region.
  const auto rects = maxRects({{0, 0, 20, 20}, {10, 0, 30, 20}});
  ASSERT_EQ(rects.size(), 1u);  // same y-span -> they fuse into one rect
  EXPECT_EQ(rects[0], Rect(0, 0, 30, 20));
}

}  // namespace
}  // namespace pao::geom
