#include "drc/checks.hpp"

#include <algorithm>

namespace pao::drc {

using geom::BoundaryEdge;
using geom::BoundaryRing;
using geom::Coord;
using geom::Point;
using geom::Rect;

namespace {

/// Floor midpoint of a rect: unlike Rect::center(), which rounds toward
/// zero, it commutes with translation on both sides of the origin.
Point floorMid(const Rect& r) {
  return {r.xlo + (r.xhi - r.xlo) / 2, r.ylo + (r.yhi - r.ylo) / 2};
}

/// Marker of a pairwise spacing violation: the span between the midpoints.
Rect pairMarker(const Rect& a, const Rect& b) {
  return Rect(floorMid(a), floorMid(b));
}

}  // namespace

std::optional<Violation> checkSpacingPair(const db::Layer& layer,
                                          const Shape& a, const Shape& b) {
  if (!conflicting(a, b)) return std::nullopt;
  if (a.rect.overlaps(b.rect)) {
    return Violation{RuleKind::kShort, layer.index,
                     a.rect.intersect(b.rect), a.net, b.net};
  }
  const Coord runLength = geom::prl(a.rect, b.rect);
  const Coord width = std::max(a.rect.minDim(), b.rect.minDim());
  const Coord req = layer.spacing(width, runLength);
  if (req <= 0) return std::nullopt;

  bool violated = false;
  if (runLength > 0) {
    violated = geom::maxAxisGap(a.rect, b.rect) < req;
  } else {
    violated = geom::distSquared(a.rect, b.rect) < req * req;
  }
  if (!violated) return std::nullopt;
  return Violation{RuleKind::kMetalSpacing, layer.index,
                   pairMarker(a.rect, b.rect), a.net, b.net};
}

std::vector<Violation> checkMinStep(const db::Layer& layer,
                                    std::span<const BoundaryRing> rings) {
  std::vector<Violation> out;
  if (!layer.minStep) return out;
  const Coord minLen = layer.minStep->minStepLength;
  const int maxEdges = layer.minStep->maxEdges;

  for (const BoundaryRing& ring : rings) {
    const int n = static_cast<int>(ring.size());
    if (n == 0) continue;
    // Rotate the scan to start right after a long edge so runs never wrap.
    int start = -1;
    for (int i = 0; i < n; ++i) {
      if (ring[i].length() >= minLen) {
        start = i;
        break;
      }
    }
    if (start < 0) {
      // Every edge is a step. Flag when the ring exceeds the allowed count.
      if (n > maxEdges) {
        Rect bbox;
        for (const BoundaryEdge& e : ring) {
          bbox = bbox.merge(Rect(e.from, e.to));
        }
        out.push_back(
            {RuleKind::kMinStep, layer.index, bbox, Shape::kObsNet, -1});
      }
      continue;
    }
    int run = 0;
    Rect runBox;
    for (int k = 1; k <= n; ++k) {
      const BoundaryEdge& e = ring[(start + k) % n];
      if (e.length() < minLen) {
        ++run;
        runBox = runBox.merge(Rect(e.from, e.to));
        if (run == maxEdges + 1) {  // report once per run
          out.push_back(
              {RuleKind::kMinStep, layer.index, runBox, Shape::kObsNet, -1});
        }
      } else {
        run = 0;
        runBox = Rect();
      }
    }
  }
  return out;
}

namespace {

/// Left-turn test for consecutive directed edges (rings are oriented with the
/// interior on the left, so a left turn is a convex corner).
bool leftTurn(const BoundaryEdge& a, const BoundaryEdge& b) {
  const Point d1{a.to.x - a.from.x, a.to.y - a.from.y};
  const Point d2{b.to.x - b.from.x, b.to.y - b.from.y};
  return d1.x * d2.y - d1.y * d2.x > 0;
}

/// The clearance region beyond an EOL edge: depth `space` outward (to the
/// right of the edge direction), extended `within` past both edge endpoints.
Rect eolRegion(const BoundaryEdge& e, Coord space, Coord within) {
  if (e.horizontal()) {
    const Coord x1 = std::min(e.from.x, e.to.x) - within;
    const Coord x2 = std::max(e.from.x, e.to.x) + within;
    // Edge direction +x has interior above; outward (right side) is -y.
    if (e.to.x > e.from.x) return {x1, e.from.y - space, x2, e.from.y};
    return {x1, e.from.y, x2, e.from.y + space};
  }
  const Coord y1 = std::min(e.from.y, e.to.y) - within;
  const Coord y2 = std::max(e.from.y, e.to.y) + within;
  // Edge direction +y has interior on the left (-x side); outward is +x.
  if (e.to.y > e.from.y) return {e.from.x, y1, e.from.x + space, y2};
  return {e.from.x - space, y1, e.from.x, y2};
}

}  // namespace

std::vector<Violation> checkEol(const db::Layer& layer,
                                std::span<const BoundaryRing> rings,
                                int selfNet, std::span<const Shape> context) {
  std::vector<Violation> out;
  if (!layer.eol) return out;
  const db::EolRule rule = *layer.eol;

  for (const BoundaryRing& ring : rings) {
    const int n = static_cast<int>(ring.size());
    for (int i = 0; i < n; ++i) {
      const BoundaryEdge& e = ring[i];
      if (e.length() >= rule.eolWidth) continue;
      const BoundaryEdge& prev = ring[(i + n - 1) % n];
      const BoundaryEdge& next = ring[(i + 1) % n];
      if (!leftTurn(prev, e) || !leftTurn(e, next)) continue;  // not a line end
      const Rect region = eolRegion(e, rule.space, rule.within);
      const bool hit =
          std::any_of(context.begin(), context.end(), [&](const Shape& s) {
            return s.layer == layer.index &&
                   (s.net != selfNet || s.net == Shape::kObsNet) &&
                   s.rect.overlaps(region);
          });
      if (hit) {
        out.push_back({RuleKind::kEndOfLine, layer.index, region, selfNet,
                       Shape::kObsNet});
      }
    }
  }
  return out;
}

std::optional<Violation> checkMinArea(const db::Layer& layer,
                                      const std::vector<Rect>& component,
                                      int net) {
  if (layer.minArea <= 0) return std::nullopt;
  if (geom::unionArea(component) >= layer.minArea) return std::nullopt;
  Rect bbox;
  for (const Rect& r : component) bbox = bbox.merge(r);
  return Violation{RuleKind::kMinArea, layer.index, bbox, net, net};
}

std::optional<Violation> checkCutSpacingPair(const db::Layer& cutLayer,
                                             const Shape& a, const Shape& b) {
  if (a.rect == b.rect && a.net == b.net) return std::nullopt;
  const Coord req = cutLayer.cutSpacing;
  if (req <= 0) return std::nullopt;
  if (a.rect.overlaps(b.rect)) {
    if (a.net == b.net) return std::nullopt;  // stacked same-net cut
    return Violation{RuleKind::kShort, cutLayer.index,
                     a.rect.intersect(b.rect), a.net, b.net};
  }
  const bool corner = geom::prl(a.rect, b.rect) <= 0;
  const bool violated = corner ? geom::distSquared(a.rect, b.rect) < req * req
                               : geom::maxAxisGap(a.rect, b.rect) < req;
  if (!violated) return std::nullopt;
  return Violation{RuleKind::kCutSpacing, cutLayer.index,
                   pairMarker(a.rect, b.rect), a.net, b.net};
}

Coord maxSpacingHalo(const db::Layer& layer) {
  Coord halo = layer.cutSpacing;
  for (const db::SpacingTableEntry& e : layer.spacingTable) {
    halo = std::max(halo, e.spacing);
  }
  if (layer.eol) {
    halo = std::max(halo, layer.eol->space + layer.eol->within);
  }
  return halo;
}

}  // namespace pao::drc
