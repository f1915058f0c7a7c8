// Per-layer spatial store of layout shapes with net/ownership identity, the
// context against which candidate shapes (via enclosures, wire segments) are
// DRC-checked.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/geom.hpp"
#include "geom/grid_index.hpp"

namespace pao::drc {

enum class ShapeKind : std::uint8_t { kPin, kObstruction, kWire, kVia, kIoPin };

/// A shape in the region query. `net` is a caller-defined identity: shapes
/// with equal non-negative `net` are electrically the same and never conflict
/// with each other; `net == kObsNet` shapes (obstructions) conflict with
/// everything routed.
struct Shape {
  geom::Rect rect;
  int layer = -1;
  int net = -1;
  ShapeKind kind = ShapeKind::kPin;
  bool fixed = true;  ///< library/pin geometry (assumed clean against itself)

  static constexpr int kObsNet = -1;
};

/// True when spacing-style rules apply between the two shapes: different
/// nets, or either side is an obstruction.
inline bool conflicting(const Shape& a, const Shape& b) {
  if (a.net == Shape::kObsNet || b.net == Shape::kObsNet) return true;
  return a.net != b.net;
}

class RegionQuery {
 public:
  explicit RegionQuery(int numLayers, geom::Coord binSize = 4096);

  void add(const Shape& s);
  void clear();
  /// Reserves room for `perLayer[l]` shapes on each layer l, so a bulk load
  /// grows each layer's tables once.
  void reserve(const std::vector<std::size_t>& perLayer);

  int numLayers() const { return static_cast<int>(layers_.size()); }
  std::size_t size() const { return count_; }

  /// Invokes fn(shape) for every stored shape on `layer` intersecting `box`.
  template <typename Fn>
  void query(int layer, const geom::Rect& box, Fn&& fn) const {
    if (layer < 0 || layer >= numLayers()) return;
    const std::vector<Shape>& shapes = byLayer_[layer];
    layers_[layer].query(box, [&](const geom::Rect&, std::uint32_t i) {
      fn(shapes[i]);
    });
  }

  /// All shapes on `layer` (unordered).
  const std::vector<Shape>& shapesOnLayer(int layer) const {
    return byLayer_.at(layer);
  }

 private:
  /// Per layer, a spatial index over positions in byLayer_ (each shape is
  /// stored once).
  std::vector<geom::GridIndex<std::uint32_t>> layers_;
  std::vector<std::vector<Shape>> byLayer_;
  std::size_t count_ = 0;
};

}  // namespace pao::drc
