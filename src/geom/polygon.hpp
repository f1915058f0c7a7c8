// Rectilinear polygon operations built on rectangle unions: slab
// decomposition, merged area, boundary extraction (ordered edge rings), and
// maximal-rectangle decomposition.
//
// These are the geometry primitives behind two parts of the paper:
//  - shape-center coordinates are defined on the *maximal rectangles* of a
//    polygonal pin (Sec. II-C), and
//  - the min-step design rule check operates on the *merged boundary* of the
//    pin shape plus a candidate via enclosure (Fig. 3).
#pragma once

#include <cstddef>
#include <vector>

#include "geom/geom.hpp"

namespace pao::geom {

/// Decomposes the union of `rects` into disjoint rects using horizontal slab
/// sweep. Vertically adjacent slabs with identical x-intervals are merged, so
/// the output is canonical for a given union region.
std::vector<Rect> unionSlabs(std::vector<Rect> rects);

/// Total area of the union of `rects` (overlaps counted once).
Area unionArea(const std::vector<Rect>& rects);

/// Groups rects into connected components; rects that touch (share an edge or
/// corner point) are connected. Returns one vector of rects per component.
std::vector<std::vector<Rect>> connectedComponents(
    const std::vector<Rect>& rects);

/// One directed edge of a polygon boundary ring. Rings are oriented so the
/// polygon interior lies to the LEFT of each directed edge: bottom edges run
/// +x, right edges run +y, top edges run -x, left edges run -y for an outer
/// ring (holes wind the opposite way).
struct BoundaryEdge {
  Point from;
  Point to;

  Coord length() const { return manhattanDist(from, to); }
  bool horizontal() const { return from.y == to.y; }

  friend bool operator==(const BoundaryEdge&, const BoundaryEdge&) = default;
};

/// A closed ring of boundary edges (edge i ends where edge i+1 starts; the
/// last edge ends at the first edge's start).
using BoundaryRing = std::vector<BoundaryEdge>;

/// Extracts all boundary rings (outer boundaries and holes) of the union of
/// `rects`. Collinear consecutive edges are merged. Rings come out in a
/// fixed order for a given input: each starts at the lowest-numbered edge of
/// the sweep (horizontal lines by ascending y, then vertical lines by
/// ascending x, each line by ascending position) not yet in a ring.
std::vector<BoundaryRing> unionBoundary(const std::vector<Rect>& rects);

/// unionBoundary() into caller-owned storage: writes the rings to
/// `rings[0, count)` and returns `count`. Slots from `count` on are left
/// empty with their capacity kept, so a vector reused across calls stops
/// allocating once it has held the largest boundary it sees. The call may
/// reallocate `rings`, so take `rings.data()` only after it returns.
std::size_t unionBoundaryInto(const std::vector<Rect>& rects,
                              std::vector<BoundaryRing>& rings);

/// Maximal rectangles of the union of `rects`: every decomposition slab is
/// extended as far as possible in the perpendicular direction while staying
/// covered, in both sweep directions, and the resulting rect set is deduped.
/// For the L/T/U/cross shapes typical of standard-cell pins this produces
/// exactly the set of all maximal rectangles.
std::vector<Rect> maxRects(const std::vector<Rect>& rects);

}  // namespace pao::geom
