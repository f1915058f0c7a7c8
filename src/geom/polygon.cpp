#include "geom/polygon.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <numeric>
#include <unordered_map>

#include "util/arena.hpp"

namespace pao::geom {

// These primitives run inside the DRC hot loop (the via judge extracts one
// boundary per enclosure layer with a min-step or EOL rule), so all
// internal scratch — interval lists, sweep events, edge stitching tables —
// lives in the calling thread's arena and dies at function exit. Only the
// returned containers touch the heap.

namespace {

using util::ArenaVector;

template <typename K, typename V, typename Comp = std::less<K>>
using ArenaMap = std::map<K, V, Comp, util::ArenaAllocator<std::pair<const K, V>>>;

template <typename K, typename V, typename Hash = std::hash<K>>
using ArenaHashMap =
    std::unordered_map<K, V, Hash, std::equal_to<K>,
                       util::ArenaAllocator<std::pair<const K, V>>>;

/// Merges a set of closed intervals into a minimal disjoint set (in place).
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

std::vector<Rect> transpose(const std::vector<Rect>& rects) {
  std::vector<Rect> out;
  out.reserve(rects.size());
  for (const Rect& r : rects) out.emplace_back(r.ylo, r.xlo, r.yhi, r.xhi);
  return out;
}

/// Shared slab sweep: appends the disjoint canonical slabs of the union of
/// `rects` to `out` (any container with emplace_back/back/size/operator[]).
/// The caller must hold an ArenaScope — an arena-backed `out` is allocated
/// from that scope, so opening one here would rewind it on return.
template <typename OutVec>
void unionSlabsInto(const std::vector<Rect>& rects, OutVec& out) {
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

  // Open slabs from the previous band keyed by x-interval, for vertical
  // merge.
  ArenaMap<std::pair<Coord, Coord>, std::size_t> open;
  ArenaVector<Interval> xs;
  ArenaVector<Interval> merged;
  for (std::size_t bi = 0; bi + 1 < ys.size(); ++bi) {
    const Coord y1 = ys[bi];
    const Coord y2 = ys[bi + 1];
    xs.clear();
    for (const Rect& r : live) {
      if (r.ylo <= y1 && r.yhi >= y2) xs.push_back(r.xSpan());
    }
    ArenaMap<std::pair<Coord, Coord>, std::size_t> nextOpen;
    mergeIntervals(xs, merged);
    for (const Interval& iv : merged) {
      const auto key = std::make_pair(iv.lo, iv.hi);
      const auto it = open.find(key);
      if (it != open.end() && out[it->second].yhi == y1) {
        out[it->second].yhi = y2;  // extend the slab from the previous band
        nextOpen[key] = it->second;
      } else {
        out.emplace_back(iv.lo, y1, iv.hi, y2);
        nextOpen[key] = out.size() - 1;
      }
    }
    open = std::move(nextOpen);
  }
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
  ArenaHashMap<std::size_t, std::size_t> rootToIdx;
  std::vector<std::vector<Rect>> out;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t root = find(i);
    auto [it, inserted] = rootToIdx.try_emplace(root, out.size());
    if (inserted) out.emplace_back();
    out[it->second].push_back(rects[i]);
  }
  return out;
}

namespace {

struct RawEdge {
  Point from;
  Point to;
};

/// Sweeps one scanline worth of horizontal (or, transposed, vertical) edge
/// contributions and appends net boundary edges. `plus` intervals carry
/// weight +1, `minus` weight -1; net +1 emits a forward edge, net -1 a
/// reversed edge, at the given fixed coordinate.
void sweepLine(Coord fixed, bool horizontal, const ArenaVector<Interval>& plus,
               const ArenaVector<Interval>& minus,
               ArenaVector<RawEdge>& out) {
  // Event-based coverage count over the variable axis.
  ArenaMap<Coord, int> delta;
  for (const Interval& iv : plus) {
    delta[iv.lo] += 1;
    delta[iv.hi] -= 1;
  }
  for (const Interval& iv : minus) {
    delta[iv.lo] -= 1;
    delta[iv.hi] += 1;
  }
  int cover = 0;
  Coord start = 0;
  int prevSign = 0;
  for (const auto& [pos, d] : delta) {
    if (prevSign != 0 && pos > start) {
      const Point a = horizontal ? Point{start, fixed} : Point{fixed, start};
      const Point b = horizontal ? Point{pos, fixed} : Point{fixed, pos};
      if (prevSign > 0) {
        out.push_back({a, b});  // bottom (+x) or left-swept equivalent
      } else {
        out.push_back({b, a});  // top (-x)
      }
    }
    cover += d;
    start = pos;
    prevSign = cover > 0 ? 1 : (cover < 0 ? -1 : 0);
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

}  // namespace

std::vector<BoundaryRing> unionBoundary(const std::vector<Rect>& rects) {
  // A union that is one rect — a lone via enclosure, or an enclosure inside
  // its pin — is that rect's ring, in the order the sweep below emits it:
  // counter-clockwise from the lower-left corner.
  Rect box;
  for (const Rect& r : rects) box = box.merge(r);
  if (box.xlo < box.xhi && box.ylo < box.yhi &&
      std::find(rects.begin(), rects.end(), box) != rects.end()) {
    return {{{{box.xlo, box.ylo}, {box.xhi, box.ylo}},
             {{box.xhi, box.ylo}, {box.xhi, box.yhi}},
             {{box.xhi, box.yhi}, {box.xlo, box.yhi}},
             {{box.xlo, box.yhi}, {box.xlo, box.ylo}}}};
  }

  util::ArenaScope scratch(util::scratchArena());
  ArenaVector<Rect> slabs;
  unionSlabsInto(rects, slabs);
  if (slabs.empty()) return {};

  ArenaVector<RawEdge> edges;

  using IntervalPair = std::pair<ArenaVector<Interval>, ArenaVector<Interval>>;
  // Horizontal boundary edges: group slab bottoms (+1) and tops (-1) by y.
  {
    ArenaMap<Coord, IntervalPair> byY;
    for (const Rect& s : slabs) {
      byY[s.ylo].first.push_back(s.xSpan());
      byY[s.yhi].second.push_back(s.xSpan());
    }
    for (auto& [y, pm] : byY) {
      sweepLine(y, /*horizontal=*/true, pm.first, pm.second, edges);
    }
  }
  // Vertical boundary edges: rights carry +1 (direction +y, interior left),
  // lefts carry -1 (direction -y).
  {
    ArenaMap<Coord, IntervalPair> byX;
    for (const Rect& s : slabs) {
      byX[s.xhi].first.push_back(s.ySpan());
      byX[s.xlo].second.push_back(s.ySpan());
    }
    for (auto& [x, pm] : byX) {
      sweepLine(x, /*horizontal=*/false, pm.first, pm.second, edges);
    }
  }

  // Stitch directed edges into rings; interior is on the left of every edge.
  ArenaHashMap<Point, ArenaVector<std::size_t>> outgoing;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    outgoing[edges[i].from].push_back(i);
  }
  ArenaVector<char> used(edges.size(), 0);
  std::vector<BoundaryRing> rings;
  ArenaVector<BoundaryEdge> ring;
  for (std::size_t seed = 0; seed < edges.size(); ++seed) {
    if (used[seed]) continue;
    ring.clear();
    std::size_t cur = seed;
    while (!used[cur]) {
      used[cur] = 1;
      ring.push_back({edges[cur].from, edges[cur].to});
      const Point at = edges[cur].to;
      const auto it = outgoing.find(at);
      if (it == outgoing.end()) break;  // should not happen for valid input
      const Point inDir = dirOf(edges[cur]);
      std::size_t best = edges.size();
      int bestScore = 4;
      for (const std::size_t cand : it->second) {
        if (used[cand]) continue;
        const int score = turnScore(inDir, dirOf(edges[cand]));
        if (score < bestScore) {
          bestScore = score;
          best = cand;
        }
      }
      if (best == edges.size()) break;  // ring closed
      cur = best;
    }
    // Merge collinear consecutive edges, including across the wrap point.
    BoundaryRing merged;
    merged.reserve(ring.size());
    for (const BoundaryEdge& e : ring) {
      if (!merged.empty()) {
        BoundaryEdge& last = merged.back();
        const bool collinear = (last.horizontal() && e.horizontal() &&
                                last.from.y == e.from.y) ||
                               (!last.horizontal() && !e.horizontal() &&
                                last.from.x == e.from.x);
        if (collinear && last.to == e.from) {
          last.to = e.to;
          continue;
        }
      }
      merged.push_back(e);
    }
    if (merged.size() >= 2) {
      BoundaryEdge& last = merged.back();
      BoundaryEdge& first = merged.front();
      const bool collinear =
          (last.horizontal() && first.horizontal() &&
           last.from.y == first.from.y) ||
          (!last.horizontal() && !first.horizontal() &&
           last.from.x == first.from.x);
      if (collinear && last.to == first.from) {
        first.from = last.from;
        merged.pop_back();
      }
    }
    if (!merged.empty()) rings.push_back(std::move(merged));
  }
  return rings;
}

std::vector<Rect> maxRects(const std::vector<Rect>& rects) {
  util::ArenaScope scratch(util::scratchArena());
  std::vector<Rect> out;

  const auto extendVertically = [](const ArenaVector<Rect>& slabs,
                                   std::vector<Rect>& result) {
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
  std::vector<Rect> vOut;
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
