// Memo of clean via verdicts over gathered via contexts.
//
// DrcEngine::judgeVia() reads nothing but its ViaContext and the tech rules,
// and every rule it runs compares shapes only with each other and with the
// via's net by equality. So two contexts that agree once translated to the
// via's origin, with every net reduced to same / other / obstruction
// relative to the via's net, get the same verdict. The memo keys each
// context that way; a context whose key was judged clean before is clean.
//
// Only clean verdicts are stored: a violation names nets and coordinates,
// so a failing via is always judged afresh. The key holds the via def, each
// enclosure's merged component, the conflicting shapes the judge reads and
// the cut neighborhood, each list sorted; it holds no net ids, instance,
// class, pattern or cluster ids. Keys live as int32 words in one flat arena.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "drc/engine.hpp"

namespace pao::drc {

class ViaVerdictMemo {
 public:
  /// Keys `ctx` and reports whether an equivalent context was recorded
  /// clean. A context whose relative coordinates do not fit 32 bits gets no
  /// key and is never known clean.
  bool knownClean(const ViaContext& ctx);
  /// Records the context of the last knownClean() call as clean.
  void recordClean();

  std::size_t size() const { return entries_.size(); }
  /// Words held by the key arena (4 bytes each).
  std::size_t arenaWords() const { return arena_.size(); }

 private:
  using Record = std::array<std::int32_t, 5>;  ///< rect (4 words) + class

  bool makeKey(const ViaContext& ctx);
  /// Appends `recs` to the key sorted, prefixed by their count.
  void appendSorted(std::vector<Record>& recs);
  bool sameKey(std::uint32_t entry) const;
  void grow();

  struct Entry {
    std::uint64_t hash;
    std::uint32_t off;  ///< key words at arena_[off, off + len)
    std::uint32_t len;
  };

  std::vector<std::int32_t> key_;  ///< key of the last knownClean() call
  std::uint64_t keyHash_ = 0;
  bool keyValid_ = false;
  std::vector<Record> recs_;  ///< scratch for one sorted list
  std::vector<std::int32_t> arena_;
  std::vector<Entry> entries_;
  /// Open-addressing table of entry index + 1 (0 = empty), power-of-two
  /// sized, at most half full.
  std::vector<std::uint32_t> slots_;
};

}  // namespace pao::drc
