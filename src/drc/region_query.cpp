#include "drc/region_query.hpp"

namespace pao::drc {

RegionQuery::RegionQuery(int numLayers, geom::Coord binSize) {
  layers_.reserve(numLayers);
  for (int i = 0; i < numLayers; ++i) layers_.emplace_back(binSize);
  byLayer_.resize(numLayers);
}

void RegionQuery::add(const Shape& s) {
  if (s.layer < 0 || s.layer >= numLayers() || s.rect.empty()) return;
  std::vector<Shape>& shapes = byLayer_[s.layer];
  layers_[s.layer].insert(s.rect, static_cast<std::uint32_t>(shapes.size()));
  shapes.push_back(s);
  ++count_;
}

void RegionQuery::reserve(const std::vector<std::size_t>& perLayer) {
  for (int l = 0; l < numLayers() && l < static_cast<int>(perLayer.size());
       ++l) {
    layers_[l].reserve(perLayer[l]);
    byLayer_[l].reserve(perLayer[l]);
  }
}

void RegionQuery::clear() {
  for (auto& g : layers_) g.clear();
  for (auto& v : byLayer_) v.clear();
  count_ = 0;
}

}  // namespace pao::drc
