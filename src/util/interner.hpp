// String interning for the DEF ingest path: maps byte strings to dense
// uint32 ids and back. Designed for the two hot uses in
// lefdef/def_parser.cpp:
//   * COMPONENTS: instance names are interned in file order, so an
//     instance's id IS its index in Design::instances — the NETS section
//     resolves component references with one hash probe and no per-lookup
//     std::string construction (Design::findInstance builds one per call).
//   * Master-name resolution caches keyed by interned id.
//
// Storage contract: interned bytes live in fixed-size blocks that are
// never reallocated, so the string_view CONTENTS returned by viewOf()
// stay valid for the interner's lifetime. The reference returned by
// viewOf() itself, however, points into a std::vector slot and is
// invalidated by the next intern() — bind it by value. Both accessors are
// registered with pao_lint's pointer-stability rule (group "interner") so
// a reference held across an intern() is flagged at lint time.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

namespace pao::util {

class StringInterner {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  StringInterner() { rehash(1024); }

  /// Id of `s`, interning it first if new. Ids are dense and assigned in
  /// first-intern order starting at 0.
  std::uint32_t intern(std::string_view s) {
    const std::uint64_t h = hash(s);
    std::size_t slot = probe(s, h);
    if (slots_[slot] != kNone) return slots_[slot];
    const std::uint32_t id = static_cast<std::uint32_t>(views_.size());
    views_.push_back(store(s));
    slots_[slot] = id;
    if (views_.size() * 10 >= slots_.size() * 7) {
      rehash(slots_.size() * 2);
    }
    return id;
  }

  /// Id of `s` if already interned, kNone otherwise. Never allocates.
  std::uint32_t find(std::string_view s) const {
    return slots_[probe(s, hash(s))];
  }

  /// The interned bytes of `id`. The returned reference lives in growable
  /// storage — copy it by value before the next intern() (the pointed-to
  /// CHARACTERS are stable for the interner's lifetime).
  const std::string_view& viewOf(std::uint32_t id) const {
    return views_[id];
  }

  std::size_t size() const { return views_.size(); }
  /// Bytes held by the character pool (capacity, not just used bytes).
  std::size_t poolBytes() const { return blocks_.size() * kBlockBytes; }

 private:
  static constexpr std::size_t kBlockBytes = 1 << 16;

  static std::uint64_t hash(std::string_view s) {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    return h;
  }

  /// Slot holding `s`'s id, or the empty slot where it would go.
  std::size_t probe(std::string_view s, std::uint64_t h) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(h) & mask;
    while (slots_[i] != kNone) {
      if (views_[slots_[i]] == s) return i;
      i = (i + 1) & mask;
    }
    return i;
  }

  void rehash(std::size_t newSize) {
    slots_.assign(newSize, kNone);
    const std::size_t mask = newSize - 1;
    for (std::uint32_t id = 0; id < views_.size(); ++id) {
      std::size_t i = static_cast<std::size_t>(hash(views_[id])) & mask;
      while (slots_[i] != kNone) i = (i + 1) & mask;
      slots_[i] = id;
    }
  }

  std::string_view store(std::string_view s) {
    if (s.size() > kBlockBytes) {
      // Oversized strings get a dedicated block (degenerate in LEF/DEF,
      // but fuzz inputs reach here).
      auto block = std::make_unique<char[]>(s.size());
      std::memcpy(block.get(), s.data(), s.size());
      oversize_.push_back(std::move(block));
      return {oversize_.back().get(), s.size()};
    }
    if (blocks_.empty() || kBlockBytes - used_ < s.size()) {
      blocks_.push_back(std::make_unique<char[]>(kBlockBytes));
      used_ = 0;
    }
    char* dst = blocks_.back().get() + used_;
    std::memcpy(dst, s.data(), s.size());
    used_ += s.size();
    return {dst, s.size()};
  }

  std::vector<std::string_view> views_;  ///< id -> interned bytes
  std::vector<std::uint32_t> slots_;     ///< open-addressing index (id/kNone)
  std::vector<std::unique_ptr<char[]>> blocks_;
  std::vector<std::unique_ptr<char[]>> oversize_;
  std::size_t used_ = 0;  ///< bytes used in blocks_.back()
};

}  // namespace pao::util
