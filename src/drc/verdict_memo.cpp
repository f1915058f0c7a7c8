#include "drc/verdict_memo.hpp"

#include <algorithm>
#include <limits>

namespace pao::drc {

namespace {

/// Net class of a shape relative to the via's net.
std::int32_t netClass(int viaNet, const Shape& s) {
  if (s.net == Shape::kObsNet) return 2;
  return s.net == viaNet ? 0 : 1;
}

bool fits(geom::Coord v) {
  return v >= std::numeric_limits<std::int32_t>::min() &&
         v <= std::numeric_limits<std::int32_t>::max();
}

std::uint64_t hashWords(const std::vector<std::int32_t>& words) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::int32_t w : words) {
    h ^= static_cast<std::uint32_t>(w);
    h *= 0x100000001b3ULL;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

}  // namespace

void ViaVerdictMemo::appendSorted(std::vector<Record>& recs) {
  std::sort(recs.begin(), recs.end());
  key_.push_back(static_cast<std::int32_t>(recs.size()));
  for (const Record& r : recs) key_.insert(key_.end(), r.begin(), r.end());
}

bool ViaVerdictMemo::makeKey(const ViaContext& ctx) {
  key_.clear();
  key_.push_back(ctx.via->index);
  key_.push_back(ctx.net == Shape::kObsNet ? 1 : 0);
  bool ok = true;
  const auto record = [&](const geom::Rect& r, std::int32_t cls) {
    const geom::Coord c[4] = {r.xlo - ctx.at.x, r.ylo - ctx.at.y,
                              r.xhi - ctx.at.x, r.yhi - ctx.at.y};
    for (const geom::Coord v : c) ok = ok && fits(v);
    recs_.push_back({static_cast<std::int32_t>(c[0]),
                     static_cast<std::int32_t>(c[1]),
                     static_cast<std::int32_t>(c[2]),
                     static_cast<std::int32_t>(c[3]), cls});
  };
  for (const ViaContext::Metal& m : ctx.metal) {
    recs_.clear();
    for (const geom::Rect& r : m.comp) record(r, 0);
    appendSorted(recs_);
    // On EOL layers the spacing shapes are exactly the EOL shapes that
    // touch the enclosure's halo, so the EOL list alone determines both (an
    // empty EOL list implies an empty spacing list there). Other layers
    // gather no EOL list and key their spacing list.
    recs_.clear();
    for (const Shape& s : m.eol.empty() ? m.spacing : m.eol) {
      record(s.rect, netClass(ctx.net, s));
    }
    appendSorted(recs_);
  }
  recs_.clear();
  for (const Shape& s : ctx.cut) record(s.rect, netClass(ctx.net, s));
  appendSorted(recs_);
  keyHash_ = hashWords(key_);
  return ok;
}

bool ViaVerdictMemo::sameKey(std::uint32_t entry) const {
  const Entry& e = entries_[entry];
  return e.hash == keyHash_ && e.len == key_.size() &&
         std::equal(key_.begin(), key_.end(), arena_.begin() + e.off);
}

bool ViaVerdictMemo::knownClean(const ViaContext& ctx) {
  keyValid_ = makeKey(ctx);
  if (!keyValid_ || slots_.empty()) return false;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = keyHash_ & mask;; i = (i + 1) & mask) {
    if (slots_[i] == 0) return false;
    if (sameKey(slots_[i] - 1)) return true;
  }
}

void ViaVerdictMemo::grow() {
  const std::size_t cap = slots_.empty() ? 1024 : slots_.size() * 2;
  slots_.assign(cap, 0);
  const std::size_t mask = cap - 1;
  for (std::uint32_t e = 0; e < entries_.size(); ++e) {
    std::size_t i = entries_[e].hash & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = e + 1;
  }
}

void ViaVerdictMemo::recordClean() {
  if (!keyValid_) return;
  keyValid_ = false;  // one record per key
  if ((entries_.size() + 1) * 2 > slots_.size()) grow();
  const auto e = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back({keyHash_, static_cast<std::uint32_t>(arena_.size()),
                      static_cast<std::uint32_t>(key_.size())});
  arena_.insert(arena_.end(), key_.begin(), key_.end());
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = keyHash_ & mask;
  while (slots_[i] != 0) i = (i + 1) & mask;
  slots_[i] = e + 1;
}

}  // namespace pao::drc
