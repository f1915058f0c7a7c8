// Uniform-bucket spatial index over axis-aligned rectangles. This is the
// region-query backbone of the DRC engine: inserted items are binned into
// fixed-size grid cells and rectangle queries visit only overlapping bins.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geom/geom.hpp"

namespace pao::geom {

template <typename T>
class GridIndex {
 public:
  /// `cellSize` trades memory for query selectivity; a few track pitches is a
  /// good default for standard-cell-scale layouts.
  explicit GridIndex(Coord cellSize = 4096) : cellSize_(cellSize) {}

  void insert(const Rect& bbox, T value) {
    const auto idx = static_cast<std::uint32_t>(items_.size());
    items_.push_back({bbox, std::move(value)});
    forEachBin(bbox, [&](std::int64_t key, std::int64_t, std::int64_t) {
      bins_[key].push_back(idx);
    });
  }

  void clear() {
    items_.clear();
    bins_.clear();
  }

  /// Reserves room for `n` items, so a bulk load grows the item table once.
  void reserve(std::size_t n) { items_.reserve(n); }

  std::size_t size() const { return items_.size(); }

  /// Invokes `fn(bbox, value)` for every item whose bbox intersects `query`
  /// (closed-region semantics: touching counts). Allocation-free: an item
  /// spanning several visited bins is reported only from the first bin (in
  /// scan order) of its bbox's bin range clipped to the query's — a
  /// stateless dedup, so concurrent queries need no shared state either.
  template <typename Fn>
  void query(const Rect& query, Fn&& fn) const {
    if (query.empty()) return;
    const std::int64_t qx1 = floorDiv(query.xlo);
    const std::int64_t qy1 = floorDiv(query.ylo);
    forEachBin(query, [&](std::int64_t key, std::int64_t gx, std::int64_t gy) {
      const auto it = bins_.find(key);
      if (it == bins_.end()) return;
      for (const std::uint32_t idx : it->second) {
        const Rect& bbox = items_[idx].bbox;
        if (!bbox.intersects(query)) continue;
        if (gx != std::max(qx1, floorDiv(bbox.xlo)) ||
            gy != std::max(qy1, floorDiv(bbox.ylo))) {
          continue;
        }
        fn(bbox, items_[idx].value);
      }
    });
  }

  /// Convenience: collects matching values into a vector.
  std::vector<T> queryValues(const Rect& query) const {
    std::vector<T> out;
    this->query(query, [&](const Rect&, const T& v) { out.push_back(v); });
    return out;
  }

 private:
  struct Item {
    Rect bbox;
    T value;
  };

  template <typename Fn>
  void forEachBin(const Rect& r, Fn&& fn) const {
    if (r.empty()) return;
    const std::int64_t x1 = floorDiv(r.xlo);
    const std::int64_t x2 = floorDiv(r.xhi);
    const std::int64_t y1 = floorDiv(r.ylo);
    const std::int64_t y2 = floorDiv(r.yhi);
    for (std::int64_t gy = y1; gy <= y2; ++gy) {
      for (std::int64_t gx = x1; gx <= x2; ++gx) {
        fn((gy << 21) ^ gx, gx, gy);
      }
    }
  }

  std::int64_t floorDiv(Coord v) const {
    return v >= 0 ? v / cellSize_ : (v - cellSize_ + 1) / cellSize_;
  }

  Coord cellSize_;
  std::vector<Item> items_;
  /// Item ids per bin; 32-bit ids halve the bin lists of large indices.
  std::unordered_map<std::int64_t, std::vector<std::uint32_t>> bins_;
};

}  // namespace pao::geom
