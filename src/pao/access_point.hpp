// Access point model (paper Sec. II-B/II-C): an x-y location on a pin shape
// plus the directions (planar east/west/north/south and via "up") from which
// the detailed router may end routing there, with the list of DRC-valid
// up-vias (primary first) and the coordinate-type cost that prioritized it.
//
// Layout note (ROADMAP item 2): vias are stored as indices into
// Tech::viaDefs() in a small inline buffer, not as a heap-owning vector of
// pointers. Oracles hold millions of APs; the flat index layout keeps the
// struct compact, allocation-free in the common case (<= 4 valid up-vias),
// and trivially serializable — the cache maps index <-> via name at the
// file boundary.
#pragma once

#include <array>
#include <cstdint>

#include "db/tech.hpp"
#include "geom/geom.hpp"
#include "util/small_vec.hpp"

namespace pao::core {

/// Coordinate types of Sec. II-C; enum values are the paper's cost values.
enum class CoordType : std::uint8_t {
  kOnTrack = 0,
  kHalfTrack = 1,
  kShapeCenter = 2,
  kEnclosureBoundary = 3,
};

constexpr int cost(CoordType t) { return static_cast<int>(t); }

/// Access directions as a bitmask.
enum AccessDir : std::uint8_t {
  kEast = 1 << 0,
  kWest = 1 << 1,
  kNorth = 1 << 2,
  kSouth = 1 << 3,
  kUp = 1 << 4,
};

struct AccessPoint {
  geom::Point loc;   ///< design coordinates of the representative instance
  int layer = -1;    ///< routing layer of the pin shape
  CoordType prefType = CoordType::kOnTrack;     ///< preferred-direction coord
  CoordType nonPrefType = CoordType::kOnTrack;  ///< non-preferred-direction
  std::uint8_t dirs = 0;  ///< valid AccessDir bits
  /// DRC-valid up-vias as indices into Tech::viaDefs(); [0] is the primary.
  util::SmallVec<std::int32_t, 4> viaIdx;

  bool hasUp() const { return (dirs & kUp) != 0; }
  /// Index of the primary up-via in Tech::viaDefs(), or -1.
  std::int32_t primaryViaIdx() const { return viaIdx.empty() ? -1 : viaIdx[0]; }
  const db::ViaDef* primaryVia(const db::Tech& tech) const {
    return viaIdx.empty() ? nullptr : &tech.viaDef(viaIdx[0]);
  }
  /// Coordinate-type cost (lower is better; Sec. II-C).
  int typeCost() const { return cost(prefType) + cost(nonPrefType); }
};

/// A planar escape probe: a stub of the layer's default wire width leaving
/// an access point in one direction.
struct EscapeStub {
  AccessDir dir;
  geom::Rect rect;
};

/// The four escape stubs (east, west, north, south) that decide planar
/// access at `loc` on `layer`: two pitches long, or four wire widths when
/// the layer has no pitch. Step 1 grants a direction when its stub is
/// DRC-clean; the dirty-AP evaluator re-checks every granted one.
inline std::array<EscapeStub, 4> escapeStubs(const db::Layer& layer,
                                             geom::Point loc) {
  const geom::Coord half = layer.width / 2;
  const geom::Coord stub = layer.pitch > 0 ? layer.pitch * 2 : layer.width * 4;
  return {{
      {kEast, geom::Rect(loc.x, loc.y - half, loc.x + stub, loc.y + half)},
      {kWest, geom::Rect(loc.x - stub, loc.y - half, loc.x, loc.y + half)},
      {kNorth, geom::Rect(loc.x - half, loc.y, loc.x + half, loc.y + stub)},
      {kSouth, geom::Rect(loc.x - half, loc.y - stub, loc.x + half, loc.y)},
  }};
}

/// An access pattern (Sec. II-B2): one access point index per signal pin of a
/// unique instance, mutually DRC-compatible via their primary vias.
struct AccessPattern {
  /// apIdx[i] indexes into the i-th signal pin's access point list.
  std::vector<int> apIdx;
  long long cost = 0;
  /// True when post-validation found no DRCs among all primary vias.
  bool validated = false;
};

/// Edge cost of a DRC-dirty via pair (paper Algorithm 3), shared by the
/// Step-2 pattern DP and the Step-3 cluster DP.
constexpr long long kDrcCost = 32768;

}  // namespace pao::core
