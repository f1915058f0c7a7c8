// Individual design-rule checks. Each check is a pure function over shapes
// (plus the layer's rules); the DrcEngine composes them with region queries.
// The merged-component rules take the component's boundary rings rather than
// its rects, so a caller extracts each component's boundary once and hands
// it to both min step and EOL.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "db/tech.hpp"
#include "drc/region_query.hpp"
#include "drc/violation.hpp"
#include "geom/polygon.hpp"

namespace pao::drc {

/// Metal-to-metal spacing between two conflicting shapes on `layer`.
/// PRL > 0 pairs use the spacing-table requirement against the axis gap;
/// corner-to-corner pairs (PRL <= 0) use Euclidean distance. Overlapping
/// conflicting shapes are shorts.
std::optional<Violation> checkSpacingPair(const db::Layer& layer,
                                          const Shape& a, const Shape& b);

/// MINSTEP over one merged same-net component, given its boundary rings
/// (geom::unionBoundary of the component): flags runs of more than
/// `maxEdges` consecutive edges shorter than `minStepLength` (paper Fig. 3:
/// a via enclosure protruding from a pin shape creates such steps).
std::vector<Violation> checkMinStep(
    const db::Layer& layer, const std::vector<geom::BoundaryRing>& rings);

/// End-of-line spacing for one merged same-net component, given its
/// boundary rings: boundary edges shorter than `eolWidth` that are convex at
/// both ends require `space` clearance (extended sideways by `within`) from
/// every shape of `context` on the layer that conflicts with `selfNet`.
/// `context` must hold every such shape within maxSpacingHalo() of the
/// component's bounding box; other shapes in it are ignored.
std::vector<Violation> checkEol(const db::Layer& layer,
                                const std::vector<geom::BoundaryRing>& rings,
                                int selfNet, std::span<const Shape> context);

/// True when the layer has a rule that reads merged-component boundaries
/// (min step or EOL) — the only case a boundary needs extracting.
inline bool needsBoundary(const db::Layer& layer) {
  return layer.minStep.has_value() || layer.eol.has_value();
}

/// MINAREA over one merged same-net component.
std::optional<Violation> checkMinArea(const db::Layer& layer,
                                      const std::vector<geom::Rect>& component,
                                      int net);

/// Cut-to-cut spacing between two cut shapes of different vias.
std::optional<Violation> checkCutSpacingPair(const db::Layer& cutLayer,
                                             const Shape& a, const Shape& b);

/// Largest spacing any rule on `layer` could require — the query halo.
geom::Coord maxSpacingHalo(const db::Layer& layer);

}  // namespace pao::drc
