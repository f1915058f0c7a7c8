#include "geom/polygon.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "util/arena.hpp"

namespace pao::geom {

// These primitives run inside the DRC hot loop (the via judge extracts one
// boundary per enclosure layer with a min-step or EOL rule), so every sweep
// works on flat sorted vectors — no node-based maps — and all internal
// scratch lives in the calling thread's arena and dies at function exit.
// unionBoundaryInto() writes into caller-owned rings, so a warm caller
// allocates nothing at all.
//
// Output order is part of the contract: slabs come out band by band, left
// to right; boundary edges are emitted horizontal lines first (ascending y),
// then vertical lines (ascending x), each line in ascending position; rings
// are stitched from the lowest unused edge id. Every caller that compares
// rings, slabs or maximal rects sees the same sequence for the same input.

namespace {

using util::ArenaVector;

/// Merges a set of closed intervals into a minimal disjoint set sorted by lo.
void mergeIntervals(ArenaVector<Interval>& ivs, ArenaVector<Interval>& out) {
  out.clear();
  std::sort(ivs.begin(), ivs.end(), [](const Interval& a, const Interval& b) {
    return a.lo < b.lo || (a.lo == b.lo && a.hi < b.hi);
  });
  for (const Interval& iv : ivs) {
    if (iv.empty()) continue;
    if (!out.empty() && iv.lo <= out.back().hi) {
      out.back().hi = std::max(out.back().hi, iv.hi);
    } else {
      out.push_back(iv);
    }
  }
}

/// A slab reaching the top of the band just swept: its x-interval and its
/// index in the output.
struct OpenSlab {
  Coord lo;
  Coord hi;
  std::size_t idx;
};

/// Shared slab sweep: appends the disjoint canonical slabs of the union of
/// `rects` to `out` (any container with emplace_back/size/operator[]).
/// The caller must hold an ArenaScope — an arena-backed `out` is allocated
/// from that scope, so opening one here would rewind it on return.
template <typename OutVec>
void unionSlabsInto(std::span<const Rect> rects, OutVec& out) {
  ArenaVector<Rect> live;
  live.reserve(rects.size());
  for (const Rect& r : rects) {
    if (!r.empty() && r.area() != 0) live.push_back(r);
  }
  if (live.empty()) return;

  ArenaVector<Coord> ys;
  ys.reserve(live.size() * 2);
  for (const Rect& r : live) {
    ys.push_back(r.ylo);
    ys.push_back(r.yhi);
  }
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());

  // Slabs open at the previous band's top, sorted by lo: a band's merged
  // intervals are disjoint with strictly increasing lo, so one forward
  // cursor finds the slab (if any) a new interval extends.
  ArenaVector<OpenSlab> open;
  ArenaVector<OpenSlab> nextOpen;
  open.reserve(live.size());
  nextOpen.reserve(live.size());
  ArenaVector<Interval> xs;
  ArenaVector<Interval> merged;
  xs.reserve(live.size());
  merged.reserve(live.size());
  for (std::size_t bi = 0; bi + 1 < ys.size(); ++bi) {
    const Coord y1 = ys[bi];
    const Coord y2 = ys[bi + 1];
    xs.clear();
    for (const Rect& r : live) {
      if (r.ylo <= y1 && r.yhi >= y2) xs.push_back(r.xSpan());
    }
    mergeIntervals(xs, merged);
    nextOpen.clear();
    std::size_t k = 0;
    for (const Interval& iv : merged) {
      while (k < open.size() && open[k].lo < iv.lo) ++k;
      if (k < open.size() && open[k].lo == iv.lo && open[k].hi == iv.hi &&
          out[open[k].idx].yhi == y1) {
        out[open[k].idx].yhi = y2;  // extend the slab from the previous band
        nextOpen.push_back({iv.lo, iv.hi, open[k].idx});
      } else {
        out.emplace_back(iv.lo, y1, iv.hi, y2);
        nextOpen.push_back({iv.lo, iv.hi, out.size() - 1});
      }
    }
    std::swap(open, nextOpen);
  }
}

ArenaVector<Rect> transpose(std::span<const Rect> rects) {
  ArenaVector<Rect> out;
  out.reserve(rects.size());
  for (const Rect& r : rects) out.emplace_back(r.ylo, r.xlo, r.yhi, r.xhi);
  return out;
}

}  // namespace

std::vector<Rect> unionSlabs(std::vector<Rect> rects) {
  util::ArenaScope scratch(util::scratchArena());
  std::vector<Rect> out;
  unionSlabsInto(rects, out);
  return out;
}

Area unionArea(const std::vector<Rect>& rects) {
  util::ArenaScope scratch(util::scratchArena());
  ArenaVector<Rect> slabs;
  unionSlabsInto(rects, slabs);
  Area a = 0;
  for (const Rect& r : slabs) a += r.area();
  return a;
}

std::vector<std::vector<Rect>> connectedComponents(
    const std::vector<Rect>& rects) {
  util::ArenaScope scratch(util::scratchArena());
  const std::size_t n = rects.size();
  ArenaVector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&](std::size_t i) {
    while (parent[i] != i) {
      parent[i] = parent[parent[i]];
      i = parent[i];
    }
    return i;
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rects[i].intersects(rects[j])) parent[find(i)] = find(j);
    }
  }
  // Components are numbered in order of their first rect.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  ArenaVector<std::size_t> compOfRoot(n, kNone);
  std::vector<std::vector<Rect>> out;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t& comp = compOfRoot[find(i)];
    if (comp == kNone) {
      comp = out.size();
      out.emplace_back();
    }
    out[comp].push_back(rects[i]);
  }
  return out;
}

namespace {

struct RawEdge {
  Point from;
  Point to;
};

/// One slab-edge endpoint on a scanline: on the line at `fixed`, coverage
/// changes by `delta` at `pos` along the line.
struct Contribution {
  Coord fixed;
  Coord pos;
  int delta;
};

/// Sweeps every scanline of `cs` (sorted here by line, then position) and
/// appends the net boundary edges: where the coverage count is positive a
/// forward edge, where negative a reversed one. Contributions at one
/// position are summed first; a position whose sum is zero still ends the
/// edge before it, so edges split wherever any slab edge ends.
void sweepLines(ArenaVector<Contribution>& cs, bool horizontal,
                ArenaVector<RawEdge>& out) {
  std::sort(cs.begin(), cs.end(),
            [](const Contribution& a, const Contribution& b) {
              return a.fixed < b.fixed || (a.fixed == b.fixed && a.pos < b.pos);
            });
  const std::size_t n = cs.size();
  for (std::size_t i = 0; i < n;) {
    const Coord fixed = cs[i].fixed;
    int cover = 0;
    Coord start = 0;
    int prevSign = 0;
    while (i < n && cs[i].fixed == fixed) {
      const Coord pos = cs[i].pos;
      int d = 0;
      for (; i < n && cs[i].fixed == fixed && cs[i].pos == pos; ++i) {
        d += cs[i].delta;
      }
      if (prevSign != 0) {
        const Point a = horizontal ? Point{start, fixed} : Point{fixed, start};
        const Point b = horizontal ? Point{pos, fixed} : Point{fixed, pos};
        if (prevSign > 0) {
          out.push_back({a, b});
        } else {
          out.push_back({b, a});
        }
      }
      cover += d;
      start = pos;
      prevSign = cover > 0 ? 1 : (cover < 0 ? -1 : 0);
    }
  }
}

/// Turn preference: sharpest left turn first, so rings that touch at a corner
/// stay separate and interiors stay on the left.
int turnScore(const Point& inDir, const Point& outDir) {
  // cross > 0: left turn; cross == 0 && dot > 0: straight; cross < 0: right.
  const Coord cross = inDir.x * outDir.y - inDir.y * outDir.x;
  const Coord dot = inDir.x * outDir.x + inDir.y * outDir.y;
  if (cross > 0) return 0;             // left
  if (cross == 0 && dot > 0) return 1; // straight
  if (cross < 0) return 2;             // right
  return 3;                            // U-turn
}

Point dirOf(const RawEdge& e) {
  return {e.to.x == e.from.x ? 0 : (e.to.x > e.from.x ? 1 : -1),
          e.to.y == e.from.y ? 0 : (e.to.y > e.from.y ? 1 : -1)};
}

bool collinearJoin(const BoundaryEdge& a, const BoundaryEdge& b) {
  const bool collinear =
      (a.horizontal() && b.horizontal() && a.from.y == b.from.y) ||
      (!a.horizontal() && !b.horizontal() && a.from.x == b.from.x);
  return collinear && a.to == b.from;
}

/// The ring slot `i` of `rings`, emptied, keeping its capacity.
BoundaryRing& ringSlot(std::vector<BoundaryRing>& rings, std::size_t i) {
  if (i == rings.size()) rings.emplace_back();
  rings[i].clear();
  return rings[i];
}

/// Empties the slots from `count` on and returns `count`.
std::size_t finishRings(std::vector<BoundaryRing>& rings, std::size_t count) {
  for (std::size_t i = count; i < rings.size(); ++i) rings[i].clear();
  return count;
}

}  // namespace

std::size_t unionBoundaryInto(const std::vector<Rect>& rects,
                              std::vector<BoundaryRing>& rings) {
  // A union that is one rect — a lone via enclosure, or an enclosure inside
  // its pin — is that rect's ring, in the order the sweep below emits it:
  // counter-clockwise from the lower-left corner.
  Rect box;
  for (const Rect& r : rects) box = box.merge(r);
  if (box.xlo < box.xhi && box.ylo < box.yhi &&
      std::find(rects.begin(), rects.end(), box) != rects.end()) {
    BoundaryRing& ring = ringSlot(rings, 0);
    ring.push_back({{box.xlo, box.ylo}, {box.xhi, box.ylo}});
    ring.push_back({{box.xhi, box.ylo}, {box.xhi, box.yhi}});
    ring.push_back({{box.xhi, box.yhi}, {box.xlo, box.yhi}});
    ring.push_back({{box.xlo, box.yhi}, {box.xlo, box.ylo}});
    return finishRings(rings, 1);
  }

  util::ArenaScope scratch(util::scratchArena());
  ArenaVector<Rect> slabs;
  slabs.reserve(rects.size() * 2);
  unionSlabsInto(rects, slabs);
  if (slabs.empty()) return finishRings(rings, 0);

  // Horizontal edges: slab bottoms weigh +1 (direction +x, interior above),
  // tops -1. Vertical edges: rights +1 (direction +y, interior left), lefts
  // -1. Each slab edge contributes its two endpoints to its line.
  ArenaVector<RawEdge> edges;
  edges.reserve(slabs.size() * 8);
  ArenaVector<Contribution> cs;
  cs.reserve(slabs.size() * 4);
  for (const Rect& s : slabs) {
    cs.push_back({s.ylo, s.xlo, 1});
    cs.push_back({s.ylo, s.xhi, -1});
    cs.push_back({s.yhi, s.xlo, -1});
    cs.push_back({s.yhi, s.xhi, 1});
  }
  sweepLines(cs, /*horizontal=*/true, edges);
  const std::size_t numHorizontal = edges.size();
  cs.clear();
  for (const Rect& s : slabs) {
    cs.push_back({s.xhi, s.ylo, 1});
    cs.push_back({s.xhi, s.yhi, -1});
    cs.push_back({s.xlo, s.ylo, -1});
    cs.push_back({s.xlo, s.yhi, 1});
  }
  sweepLines(cs, /*horizontal=*/false, edges);

  // Stitch directed edges into rings; interior is on the left of every edge.
  // Each run is already sorted by start point (horizontal edges by y then x,
  // vertical ones by x then y: a line's edges are disjoint and ascending),
  // so a point's outgoing edges are found by binary search in both runs,
  // in id order; ties in the turn preference go to the lowest id.
  const std::size_t n = edges.size();
  const auto hBegin = edges.begin();
  const auto vBegin = hBegin + static_cast<std::ptrdiff_t>(numHorizontal);
  ArenaVector<char> used(n, 0);
  ArenaVector<BoundaryEdge> ring;
  ring.reserve(n);
  std::size_t count = 0;
  for (std::size_t seed = 0; seed < n; ++seed) {
    if (used[seed]) continue;
    ring.clear();
    std::size_t cur = seed;
    while (!used[cur]) {
      used[cur] = 1;
      ring.push_back({edges[cur].from, edges[cur].to});
      const Point at = edges[cur].to;
      const Point inDir = dirOf(edges[cur]);
      std::size_t best = n;
      int bestScore = 4;
      const auto consider = [&](std::size_t id) {
        if (used[id]) return;
        const int score = turnScore(inDir, dirOf(edges[id]));
        if (score < bestScore) {
          bestScore = score;
          best = id;
        }
      };
      for (auto it = std::lower_bound(hBegin, vBegin, at,
                                      [](const RawEdge& e, const Point& p) {
                                        return e.from.y < p.y ||
                                               (e.from.y == p.y &&
                                                e.from.x < p.x);
                                      });
           it != vBegin && it->from == at; ++it) {
        consider(static_cast<std::size_t>(it - hBegin));
      }
      for (auto it = std::lower_bound(vBegin, edges.end(), at,
                                      [](const RawEdge& e, const Point& p) {
                                        return e.from < p;
                                      });
           it != edges.end() && it->from == at; ++it) {
        consider(static_cast<std::size_t>(it - hBegin));
      }
      if (best == n) break;  // ring closed
      cur = best;
    }
    // Merge collinear consecutive edges, including across the wrap point.
    BoundaryRing& merged = ringSlot(rings, count);
    for (const BoundaryEdge& e : ring) {
      if (!merged.empty() && collinearJoin(merged.back(), e)) {
        merged.back().to = e.to;
        continue;
      }
      merged.push_back(e);
    }
    if (merged.size() >= 2 && collinearJoin(merged.back(), merged.front())) {
      merged.front().from = merged.back().from;
      merged.pop_back();
    }
    if (!merged.empty()) ++count;
  }
  return finishRings(rings, count);
}

std::vector<BoundaryRing> unionBoundary(const std::vector<Rect>& rects) {
  std::vector<BoundaryRing> rings;
  rings.resize(unionBoundaryInto(rects, rings));
  return rings;
}

std::vector<Rect> maxRects(const std::vector<Rect>& rects) {
  util::ArenaScope scratch(util::scratchArena());
  std::vector<Rect> out;

  const auto extendVertically = [](const ArenaVector<Rect>& slabs,
                                   auto& result) {
    for (const Rect& s : slabs) {
      Coord lo = s.ylo;
      Coord hi = s.yhi;
      bool grew = true;
      while (grew) {
        grew = false;
        for (const Rect& t : slabs) {
          if (t.yhi == lo && t.xlo <= s.xlo && t.xhi >= s.xhi) {
            lo = t.ylo;
            grew = true;
          }
          if (t.ylo == hi && t.xlo <= s.xlo && t.xhi >= s.xhi) {
            hi = t.yhi;
            grew = true;
          }
        }
      }
      result.emplace_back(s.xlo, lo, s.xhi, hi);
    }
  };

  ArenaVector<Rect> slabs;
  unionSlabsInto(rects, slabs);
  extendVertically(slabs, out);
  ArenaVector<Rect> vOut;
  slabs.clear();
  unionSlabsInto(transpose(rects), slabs);
  extendVertically(slabs, vOut);
  for (const Rect& r : transpose(vOut)) out.push_back(r);

  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  // Drop rects that are strictly contained in another (non-maximal).
  std::vector<Rect> maximal;
  for (const Rect& r : out) {
    bool dominated = false;
    for (const Rect& o : out) {
      if (o != r && o.contains(r)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) maximal.push_back(r);
  }
  return maximal;
}

}  // namespace pao::geom
