// The DRC engine: owns a region-query context of fixed/routed shapes and
// answers two kinds of questions:
//   1. incremental — "would dropping this via / wire here be DRC-clean?"
//      (the validity oracle of Algorithm 1 and the isDRCClean predicate of
//      Algorithm 3), and
//   2. batch — "how many violations does the current layout have?"
//      (the #DRC metric of Experiment 3).
//
// A via check runs in two parts. gatherVia() does every region query — the
// shapes near each enclosure and the cut, and each enclosure's merged
// same-net component — into a caller-owned ViaContext. judgeVia() is a pure
// function of that context: it extracts each metal layer's merged boundary
// once, into caller-owned ring storage, and runs spacing, min step, EOL and
// cut spacing over the gathered shapes. checkVia() is the two in sequence
// over a ViaScratch (a context plus its ring storage); with reused scratch,
// neither allocates once warm unless it finds violations.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "db/tech.hpp"
#include "drc/checks.hpp"
#include "drc/region_query.hpp"

namespace pao::drc {

/// Deterministic work tallies of the via judge. A caller keeps one per batch
/// (a class build, a cluster pair, an evaluation pass), so a check costs
/// plain increments; publish() adds the batch to the pao.drc.* counters.
struct DrcWork {
  std::uint64_t viaChecks = 0;        ///< vias judged
  std::uint64_t metalRectChecks = 0;  ///< enclosure rects judged (2 per via)
  std::uint64_t unionBoundaryCalls = 0;  ///< merged boundaries extracted

  /// Adds the tallies to the registry counters and zeroes them.
  void publish();
};

/// Everything judgeVia() reads about one candidate via, in caller-owned
/// storage: reused across checks, a warm context allocates nothing. Shape
/// lists keep region-query order followed by the caller's extra shapes.
struct ViaContext {
  struct Metal {
    int layer = -1;
    geom::Rect enc;  ///< the enclosure rect
    /// Shapes conflicting with the via's net within the layer's spacing
    /// halo of `enc`.
    std::vector<Shape> spacing;
    /// Merged same-net component containing `enc` (enc first).
    std::vector<geom::Rect> comp;
    /// Shapes conflicting with the via's net that can reach an EOL region
    /// the judge reports: within the spacing halo of the component's
    /// bounding box and near the enclosure. Gathered on EOL layers only; a
    /// superset of `spacing` there.
    std::vector<Shape> eol;
  };

  const db::ViaDef* via = nullptr;
  geom::Point at;
  int net = Shape::kObsNet;
  Metal metal[2];  ///< bottom, then top enclosure
  /// Shapes within the cut spacing of the cut rect.
  std::vector<Shape> cut;
};

/// Caller-owned storage of one via check, reused across checks: the
/// gathered context, and the ring storage judgeVia() writes each merged
/// boundary into (see geom::unionBoundaryInto()).
struct ViaScratch {
  ViaContext ctx;
  std::vector<geom::BoundaryRing> rings;
};

class DrcEngine {
 public:
  explicit DrcEngine(const db::Tech& tech);

  RegionQuery& region() { return region_; }
  const RegionQuery& region() const { return region_; }
  const db::Tech& tech() const { return *tech_; }

  /// Shapes a via instance contributes (bottom enclosure, cut, top
  /// enclosure), for use as `extra` context in pairwise checks.
  std::vector<Shape> viaShapes(const db::ViaDef& via, geom::Point p,
                               int net) const;
  /// viaShapes() appended to `out` instead of returned.
  void appendViaShapes(const db::ViaDef& via, geom::Point p, int net,
                       std::vector<Shape>& out) const;

  /// Gathers into `ctx` everything judgeVia() needs to check dropping `via`
  /// at `p` connecting `net`. `extra` shapes are treated as additional
  /// context (e.g. a neighboring candidate via when evaluating DP edge
  /// compatibility).
  void gatherVia(const db::ViaDef& via, geom::Point p, int net,
                 std::span<const Shape> extra, ViaContext& ctx) const;
  /// Appends the violations of the gathered via to `out`. Reads only `ctx`
  /// and the tech rules, so two contexts that agree up to a translation and
  /// a renaming of nets (same / other / obstruction relative to the via's
  /// net) get the same verdict. `rings` is scratch: its contents on entry
  /// do not matter, and it keeps its buffers for the next call.
  void judgeVia(const ViaContext& ctx,
                std::vector<geom::BoundaryRing>& rings,
                std::vector<Violation>& out, DrcWork& work) const;

  /// All violations caused by dropping `via` at `p` connecting `net`:
  /// gatherVia() into `scratch.ctx`, then judgeVia().
  std::vector<Violation> checkVia(const db::ViaDef& via, geom::Point p,
                                  int net, std::span<const Shape> extra,
                                  ViaScratch& scratch, DrcWork& work) const;
  bool isViaClean(const db::ViaDef& via, geom::Point p, int net,
                  std::span<const Shape> extra, ViaScratch& scratch,
                  DrcWork& work) const {
    return checkVia(via, p, net, extra, scratch, work).empty();
  }
  /// One-off forms with their own scratch; the work is published per call.
  std::vector<Violation> checkVia(const db::ViaDef& via, geom::Point p,
                                  int net,
                                  std::span<const Shape> extra = {}) const;
  bool isViaClean(const db::ViaDef& via, geom::Point p, int net,
                  std::span<const Shape> extra = {}) const {
    return checkVia(via, p, net, extra).empty();
  }

  /// Spacing/short violations caused by a candidate wire rect.
  std::vector<Violation> checkWire(const geom::Rect& r, int layer, int net,
                                   std::span<const Shape> extra = {}) const;

  /// Full-layout batch check over everything in the region query. Pairs of
  /// fixed shapes are skipped (library geometry is assumed self-clean).
  /// With numThreads != 1 the work is sharded by layer-local shape ranges
  /// and per-net components over the executor; the result is canonically
  /// sorted (violationLess) in every mode, so thread count never changes
  /// the returned vector.
  std::vector<Violation> checkAll(int numThreads = 1) const;

 private:
  /// Same-net shapes on `layer` connected (transitively touching) to `seed`,
  /// including `seed` itself — the merged component for min-step/EOL/area —
  /// written to `comp`.
  void mergedComponent(const geom::Rect& seed, int layer, int net,
                       std::span<const Shape> extra,
                       std::vector<geom::Rect>& comp) const;

  template <typename Fn>
  void queryWithExtra(int layer, const geom::Rect& box,
                      std::span<const Shape> extra, Fn&& fn) const {
    region_.query(layer, box, fn);
    for (const Shape& s : extra) {
      if (s.layer == layer && s.rect.intersects(box)) fn(s);
    }
  }

  const db::Tech* tech_;
  RegionQuery region_;
};

}  // namespace pao::drc
