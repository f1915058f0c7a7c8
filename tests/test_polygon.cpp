#include "geom/polygon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <tuple>

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

// ------------------------------------------------ kernel output fingerprint

/// splitmix64: a seeded stream that is the same under every standard
/// library (std:: distributions are not), so the digest below is portable.
struct SplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform-ish in [lo, hi].
  Coord in(Coord lo, Coord hi) {
    return lo + static_cast<Coord>(next() % static_cast<std::uint64_t>(
                                                hi - lo + 1));
  }
};

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::int64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= static_cast<std::uint64_t>(v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(const Rect& r) {
    add(r.xlo);
    add(r.ylo);
    add(r.xhi);
    add(r.yhi);
  }
};

/// One random rect set: tiny-grid soups (duplicates, corner touches, holes,
/// zero-area rects), via-sized pin-plus-enclosure stacks, frames around a
/// hole, and coarse-grid unions with coinciding edges, at coordinates on
/// both sides of the origin.
std::vector<Rect> randomRectSet(SplitMix& rng) {
  std::vector<Rect> rects;
  switch (rng.next() % 4) {
    case 0: {
      const int n = static_cast<int>(rng.in(1, 6));
      for (int i = 0; i < n; ++i) {
        const Coord x = rng.in(-6, 6);
        const Coord y = rng.in(-6, 6);
        rects.emplace_back(x, y, x + rng.in(0, 6), y + rng.in(0, 6));
      }
      if (n > 1 && rng.next() % 3 == 0) rects.push_back(rects.front());
      break;
    }
    case 1: {
      const Coord cx = rng.in(-3000, 3000);
      const Coord cy = rng.in(-3000, 3000);
      const Coord hw = rng.in(30, 60);
      rects.emplace_back(cx - rng.in(50, 900), cy - hw, cx + rng.in(50, 900),
                         cy + hw);
      const int n = static_cast<int>(rng.in(1, 5));
      for (int i = 0; i < n; ++i) {
        const Coord x = cx + rng.in(-200, 200);
        const Coord y = cy + rng.in(-150, 150);
        rects.emplace_back(x - rng.in(35, 120), y - rng.in(35, 120),
                           x + rng.in(35, 120), y + rng.in(35, 120));
      }
      break;
    }
    case 2: {
      const Coord x = rng.in(-50, 50);
      const Coord y = rng.in(-50, 50);
      const Coord w = rng.in(3, 20);
      const Coord t = rng.in(1, w / 2 + 1);
      rects.emplace_back(x, y, x + w, y + t);
      rects.emplace_back(x, y + w - t, x + w, y + w);
      rects.emplace_back(x, y, x + t, y + w);
      rects.emplace_back(x + w - t, y, x + w, y + w);
      const int n = static_cast<int>(rng.in(0, 3));
      for (int i = 0; i < n; ++i) {
        const Coord ex = x + rng.in(-5, w + 5);
        const Coord ey = y + rng.in(-5, w + 5);
        rects.emplace_back(ex, ey, ex + rng.in(1, 8), ey + rng.in(1, 8));
      }
      break;
    }
    default: {
      const int n = static_cast<int>(rng.in(2, 10));
      for (int i = 0; i < n; ++i) {
        const Coord x = rng.in(-10, 10) * 10;
        const Coord y = rng.in(-10, 10) * 10;
        rects.emplace_back(x, y, x + rng.in(1, 6) * 10, y + rng.in(1, 6) * 10);
      }
      break;
    }
  }
  return rects;
}

TEST(PolygonKernel, OutputDigestIsPinned) {
  // Rings (edge order included), slabs, maximal rects, union area and
  // components of 5000 seeded rect sets, folded into one digest. The value
  // was recorded from the map-based sweep this kernel replaced; any change
  // to what the kernel emits, or in which order, moves it.
  SplitMix rng{20261020};
  Digest d;
  for (int i = 0; i < 5000; ++i) {
    const std::vector<Rect> rects = randomRectSet(rng);
    const std::vector<BoundaryRing> rings = unionBoundary(rects);
    d.add(static_cast<std::int64_t>(rings.size()));
    for (const BoundaryRing& ring : rings) {
      d.add(static_cast<std::int64_t>(ring.size()));
      for (const BoundaryEdge& e : ring) {
        d.add(e.from.x);
        d.add(e.from.y);
        d.add(e.to.x);
        d.add(e.to.y);
      }
    }
    const std::vector<Rect> slabs = unionSlabs(rects);
    d.add(static_cast<std::int64_t>(slabs.size()));
    for (const Rect& r : slabs) d.add(r);
    const std::vector<Rect> maximal = maxRects(rects);
    d.add(static_cast<std::int64_t>(maximal.size()));
    for (const Rect& r : maximal) d.add(r);
    d.add(unionArea(rects));
    for (const std::vector<Rect>& comp : connectedComponents(rects)) {
      d.add(static_cast<std::int64_t>(comp.size()));
      for (const Rect& r : comp) d.add(r);
    }
  }
  EXPECT_EQ(d.h, 0x9dc3ed4c68dcb23fULL);
}

TEST(PolygonKernel, IntoMatchesAndReusesCallerStorage) {
  // unionBoundaryInto() gives unionBoundary()'s rings in the front slots and
  // leaves the rest empty; a second pass over the same inputs, once the
  // storage has held each boundary, moves no buffer.
  SplitMix rng{11};
  std::vector<std::vector<Rect>> sets;
  for (int i = 0; i < 300; ++i) sets.push_back(randomRectSet(rng));
  std::vector<BoundaryRing> rings;
  for (const std::vector<Rect>& rects : sets) {
    const std::size_t n = unionBoundaryInto(rects, rings);
    ASSERT_LE(n, rings.size());
    EXPECT_EQ(std::vector<BoundaryRing>(rings.begin(), rings.begin() + n),
              unionBoundary(rects));
    for (std::size_t i = n; i < rings.size(); ++i) {
      EXPECT_TRUE(rings[i].empty());
    }
  }
  const auto storage = [&] {
    std::vector<std::pair<const void*, std::size_t>> out{
        {rings.data(), rings.capacity()}};
    for (const BoundaryRing& r : rings) {
      out.emplace_back(r.data(), r.capacity());
    }
    return out;
  };
  const auto warm = storage();
  for (const std::vector<Rect>& rects : sets) unionBoundaryInto(rects, rings);
  EXPECT_EQ(storage(), warm);
}

TEST(PolygonKernel, RingsTraceTheRasterBoundaryOnce) {
  // Independent of the sweep: rasterize the union onto unit cells, and
  // every unit segment between a covered and an uncovered cell must appear
  // in the rings exactly once, directed with the covered cell on its left.
  SplitMix rng{7};
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<Rect> rects;
    const int n = static_cast<int>(rng.in(1, 7));
    for (int i = 0; i < n; ++i) {
      const Coord x = rng.in(-8, 8);
      const Coord y = rng.in(-8, 8);
      rects.emplace_back(x, y, x + rng.in(0, 7), y + rng.in(0, 7));
    }
    const auto covered = [&](Coord x, Coord y) {
      return std::any_of(rects.begin(), rects.end(), [&](const Rect& r) {
        return r.xlo <= x && x + 1 <= r.xhi && r.ylo <= y && y + 1 <= r.yhi;
      });
    };
    using Segment = std::tuple<Coord, Coord, Coord, Coord>;  // from, to
    std::map<Segment, int> want;
    for (Coord x = -9; x <= 16; ++x) {
      for (Coord y = -9; y <= 16; ++y) {
        const bool in = covered(x, y);
        if (in != covered(x, y - 1)) {  // horizontal segment at y
          want[in ? Segment{x, y, x + 1, y} : Segment{x + 1, y, x, y}] = 1;
        }
        if (in != covered(x - 1, y)) {  // vertical segment at x
          want[in ? Segment{x, y + 1, x, y} : Segment{x, y, x, y + 1}] = 1;
        }
      }
    }
    std::map<Segment, int> got;
    for (const BoundaryRing& ring : unionBoundary(rects)) {
      ASSERT_TRUE(ringClosed(ring)) << "set " << iter;
      for (const BoundaryEdge& e : ring) {
        const Coord dx = e.to.x > e.from.x ? 1 : (e.to.x < e.from.x ? -1 : 0);
        const Coord dy = e.to.y > e.from.y ? 1 : (e.to.y < e.from.y ? -1 : 0);
        for (Point p = e.from; p != e.to; p = {p.x + dx, p.y + dy}) {
          ++got[{p.x, p.y, p.x + dx, p.y + dy}];
        }
      }
    }
    EXPECT_EQ(got, want) << "set " << iter;
  }
}

}  // namespace
}  // namespace pao::geom
