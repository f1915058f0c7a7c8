// Step 1 — pin-based access point generation (paper Sec. III-A, Algorithm 1).
//
// For each signal pin of a unique instance, candidate points are generated by
// sweeping coordinate-type combinations in cost order — non-preferred
// direction types {on-track, half-track, shape-center}, preferred direction
// types {on-track, half-track, shape-center, enclosure-boundary} — and a
// candidate is kept iff a via can be dropped on it DRC-free against the
// intra-cell context. The sweep early-terminates once k valid points exist,
// but always finishes the current type combination, so large pins may yield
// slightly more than k points.
#pragma once

#include <vector>

#include "pao/access_point.hpp"
#include "pao/inst_context.hpp"

namespace pao::core {

struct ApGenConfig {
  /// Required number of access points per pin (early-termination threshold).
  int k = 3;
  /// When true (standard cells), only points with valid up-via access are
  /// kept (paper footnote 1: via access is preferred in advanced nodes).
  bool requireVia = true;
};

class AccessPointGenerator {
 public:
  explicit AccessPointGenerator(const InstContext& ctx, ApGenConfig cfg = {});

  /// Algorithm 1 for one master pin. Returned points are deduplicated by
  /// location and ordered by generation (i.e. by coordinate-type cost).
  std::vector<AccessPoint> generate(int pinIdx) const;

  /// Runs generate() for every signal pin; result is indexed parallel to
  /// InstContext::signalPins().
  std::vector<std::vector<AccessPoint>> generateAll() const;

 private:
  /// Candidate coordinates of one type along the preferred-direction axis
  /// (the axis whose value a routing track of this layer fixes).
  std::vector<geom::Coord> prefCoords(const geom::Rect& shape,
                                      const db::Layer& layer,
                                      CoordType type) const;
  /// Candidate coordinates along the non-preferred axis; on-track uses the
  /// upper layer's preferred-direction tracks (Sec. II-C).
  std::vector<geom::Coord> nonPrefCoords(const geom::Rect& shape,
                                         const db::Layer& layer,
                                         CoordType type) const;

  /// DRC-validates a candidate point; fills dirs/viaDefs. Returns false when
  /// the point offers no usable access.
  bool validate(AccessPoint& ap, int pinIdx, drc::ViaContext& scratch,
                drc::DrcWork& work) const;

  const InstContext* ctx_;
  ApGenConfig cfg_;
};

}  // namespace pao::core
