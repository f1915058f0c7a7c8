#include "drc/engine.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <utility>

#include "geom/polygon.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/executor.hpp"
#include "util/jobs.hpp"

namespace pao::drc {

using geom::Coord;
using geom::Point;
using geom::Rect;

DrcEngine::DrcEngine(const db::Tech& tech)
    : tech_(&tech), region_(static_cast<int>(tech.layers().size())) {}

void DrcWork::publish() {
  if (viaChecks == 0) return;
  PAO_COUNTER_ADD("pao.drc.via_checks", viaChecks);
  PAO_COUNTER_ADD("pao.drc.metal_rect_checks", metalRectChecks);
  PAO_COUNTER_ADD("pao.drc.union_boundary_calls", unionBoundaryCalls);
  *this = DrcWork{};
}

std::vector<Shape> DrcEngine::viaShapes(const db::ViaDef& via, Point p,
                                        int net) const {
  std::vector<Shape> out;
  appendViaShapes(via, p, net, out);
  return out;
}

void DrcEngine::appendViaShapes(const db::ViaDef& via, Point p, int net,
                                std::vector<Shape>& out) const {
  out.push_back({via.botEncAt(p), via.botLayer, net, ShapeKind::kVia, false});
  out.push_back({via.cutAt(p), via.cutLayer, net, ShapeKind::kVia, false});
  out.push_back({via.topEncAt(p), via.topLayer, net, ShapeKind::kVia, false});
}

void DrcEngine::mergedComponent(const Rect& seed, int layer, int net,
                                std::span<const Shape> extra,
                                std::vector<Rect>& comp) const {
  comp.assign(1, seed);
  const auto absorbed = [&](const Rect& r) {
    return std::find(comp.begin(), comp.end(), r) != comp.end();
  };
  // Bounded breadth-first flood fill over touching same-net shapes; `comp`
  // doubles as the queue (entries past `next` are still to expand). The
  // bound keeps the incremental check local; standard-cell pins have few
  // rects.
  constexpr std::size_t kMaxComponent = 64;
  for (std::size_t next = 0;
       next < comp.size() && comp.size() < kMaxComponent; ++next) {
    const Rect cur = comp[next];
    queryWithExtra(layer, cur, extra, [&](const Shape& s) {
      if (s.net != net || comp.size() >= kMaxComponent) return;
      if (!s.rect.intersects(cur) || absorbed(s.rect)) return;
      comp.push_back(s.rect);
    });
  }
}

namespace {

/// conflicting() against a candidate shape of net `net`.
bool conflictsWith(int net, const Shape& s) {
  return net == Shape::kObsNet || s.net == Shape::kObsNet || s.net != net;
}

/// The window around a via enclosure within which merged-component
/// violations are attributed to the via — a long pin bar may carry
/// pre-existing artifacts far away that the via did not cause.
Rect viaVicinity(const db::Layer& layer, const Rect& enc) {
  return enc.bloat(maxSpacingHalo(layer) +
                   (layer.minStep ? layer.minStep->minStepLength : 0));
}

}  // namespace

void DrcEngine::gatherVia(const db::ViaDef& via, Point p, int net,
                          std::span<const Shape> extra,
                          ViaContext& ctx) const {
  ctx.via = &via;
  ctx.at = p;
  ctx.net = net;
  const auto gatherMetal = [&](ViaContext::Metal& m, const Rect& enc,
                               int layerIdx) {
    const db::Layer& layer = tech_->layer(layerIdx);
    const Coord halo = maxSpacingHalo(layer);
    m.layer = layerIdx;
    m.enc = enc;
    m.spacing.clear();
    queryWithExtra(layerIdx, enc.bloat(halo), extra, [&](const Shape& s) {
      if (conflictsWith(net, s)) m.spacing.push_back(s);
    });
    mergedComponent(enc, layerIdx, net, extra, m.comp);
    m.eol.clear();
    if (!layer.eol) return;
    // An EOL region lies within the halo of the component, and the judge
    // keeps only regions touching the via's vicinity; a region spans less
    // than eolWidth + 2 * within along its edge and `space` across it, so no
    // shape beyond `reach` can overlap a kept region.
    Rect compBox;
    for (const Rect& r : m.comp) compBox = compBox.merge(r);
    const db::EolRule& rule = *layer.eol;
    const Rect reach = viaVicinity(layer, enc).bloat(
        rule.eolWidth + 2 * rule.within + rule.space);
    queryWithExtra(layerIdx, compBox.bloat(halo).intersect(reach), extra,
                   [&](const Shape& s) {
                     if (conflictsWith(net, s)) m.eol.push_back(s);
                   });
  };
  gatherMetal(ctx.metal[0], via.botEncAt(p), via.botLayer);
  gatherMetal(ctx.metal[1], via.topEncAt(p), via.topLayer);

  ctx.cut.clear();
  const Rect cutRect = via.cutAt(p);
  queryWithExtra(via.cutLayer,
                 cutRect.bloat(tech_->layer(via.cutLayer).cutSpacing), extra,
                 [&](const Shape& s) { ctx.cut.push_back(s); });
}

void DrcEngine::judgeVia(const ViaContext& ctx,
                         std::vector<geom::BoundaryRing>& rings,
                         std::vector<Violation>& out, DrcWork& work) const {
  const db::ViaDef& via = *ctx.via;
  ++work.viaChecks;
  for (const ViaContext::Metal& m : ctx.metal) {
    ++work.metalRectChecks;
    const db::Layer& layer = tech_->layer(m.layer);
    const Shape cand{m.enc, m.layer, ctx.net, ShapeKind::kVia, false};

    // Spacing / shorts against conflicting context shapes.
    for (const Shape& s : m.spacing) {
      if (auto v = checkSpacingPair(layer, cand, s)) out.push_back(*v);
    }
    if (!needsBoundary(layer)) continue;

    // Min step and EOL over the merged same-net component, sharing one
    // boundary extraction; only violations in the via's vicinity count.
    const Rect vicinity = viaVicinity(layer, m.enc);
    // The count first: the call may reallocate `rings`.
    const std::size_t numRings = geom::unionBoundaryInto(m.comp, rings);
    const std::span<const geom::BoundaryRing> boundary(rings.data(),
                                                       numRings);
    ++work.unionBoundaryCalls;
    for (const Violation& v : checkMinStep(layer, boundary)) {
      if (v.bbox.intersects(vicinity)) out.push_back(v);
    }
    for (const Violation& v : checkEol(layer, boundary, ctx.net, m.eol)) {
      if (v.bbox.intersects(vicinity)) out.push_back(v);
    }
  }

  // Cut spacing.
  const db::Layer& cutLayer = tech_->layer(via.cutLayer);
  const Shape cutCand{via.cutAt(ctx.at), via.cutLayer, ctx.net,
                      ShapeKind::kVia, false};
  for (const Shape& s : ctx.cut) {
    if (auto v = checkCutSpacingPair(cutLayer, cutCand, s)) out.push_back(*v);
  }
}

std::vector<Violation> DrcEngine::checkVia(const db::ViaDef& via, Point p,
                                           int net,
                                           std::span<const Shape> extra,
                                           ViaScratch& scratch,
                                           DrcWork& work) const {
  gatherVia(via, p, net, extra, scratch.ctx);
  std::vector<Violation> out;
  judgeVia(scratch.ctx, scratch.rings, out, work);
  return out;
}

std::vector<Violation> DrcEngine::checkVia(const db::ViaDef& via, Point p,
                                           int net,
                                           std::span<const Shape> extra) const {
  ViaScratch scratch;
  DrcWork work;
  std::vector<Violation> out = checkVia(via, p, net, extra, scratch, work);
  work.publish();
  return out;
}

std::vector<Violation> DrcEngine::checkWire(const Rect& r, int layerIdx,
                                            int net,
                                            std::span<const Shape> extra) const {
  std::vector<Violation> out;
  const db::Layer& layer = tech_->layer(layerIdx);
  const Shape cand{r, layerIdx, net, ShapeKind::kWire, false};
  queryWithExtra(layerIdx, r.bloat(maxSpacingHalo(layer)), extra,
                 [&](const Shape& s) {
                   if (auto v = checkSpacingPair(layer, cand, s)) {
                     out.push_back(*v);
                   }
                 });
  return out;
}

std::vector<Violation> DrcEngine::checkAll(int numThreads) const {
  PAO_TRACE_SCOPE("drc.check_all");
  const int numLayers = static_cast<int>(tech_->layers().size());

  // The batch check is sharded into independent tasks: contiguous shape
  // ranges for the pairwise loops and net ranges for the merged-component
  // rules, all built over per-layer indices that are only read concurrently.
  // The merged output is canonically sorted, so the shard layout (and hence
  // the thread count) never changes the returned vector.
  std::vector<std::function<void(std::vector<Violation>&)>> tasks;
  std::deque<geom::GridIndex<std::size_t>> indices;
  std::deque<std::vector<std::pair<int, std::vector<const Shape*>>>> netLists;

  const auto rangeChunks = [&](std::size_t count,
                               const std::function<void(
                                   std::size_t, std::size_t,
                                   std::vector<Violation>&)>& body) {
    // Fixed shard target, independent of the thread count, so the task
    // count (and with it pao.jobs.executed) is identical at any --threads.
    // 64 shards per range keeps plenty of steal granularity for the worker
    // counts this engine sees without drowning the graph in tiny jobs.
    static constexpr std::size_t kShardTarget = 64;
    const std::size_t chunk =
        std::max<std::size_t>(1, (count + kShardTarget - 1) / kShardTarget);
    for (std::size_t lo = 0; lo < count; lo += chunk) {
      const std::size_t hi = std::min(count, lo + chunk);
      tasks.push_back([body, lo, hi](std::vector<Violation>& out) {
        body(lo, hi, out);
      });
    }
  };

  for (int li = 0; li < numLayers; ++li) {
    const db::Layer& layer = tech_->layer(li);
    const std::vector<Shape>& shapes = region_.shapesOnLayer(li);

    if (layer.type == db::LayerType::kCut) {
      geom::GridIndex<std::size_t>& idx = indices.emplace_back();
      for (std::size_t i = 0; i < shapes.size(); ++i) {
        idx.insert(shapes[i].rect, i);
      }
      rangeChunks(shapes.size(), [&layer, &shapes, &idx](
                                     std::size_t lo, std::size_t hi,
                                     std::vector<Violation>& out) {
        for (std::size_t i = lo; i < hi; ++i) {
          idx.query(shapes[i].rect.bloat(layer.cutSpacing),
                    [&](const Rect&, std::size_t j) {
                      if (j <= i) return;
                      if (shapes[i].fixed && shapes[j].fixed) return;
                      if (auto v = checkCutSpacingPair(layer, shapes[i],
                                                       shapes[j])) {
                        out.push_back(*v);
                      }
                    });
        }
      });
      continue;
    }
    if (layer.type != db::LayerType::kRouting) continue;

    // Pairwise spacing (skip fixed-fixed: library geometry is self-clean).
    const Coord halo = maxSpacingHalo(layer);
    geom::GridIndex<std::size_t>& idx = indices.emplace_back();
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      idx.insert(shapes[i].rect, i);
    }
    rangeChunks(shapes.size(), [&layer, &shapes, &idx, halo](
                                   std::size_t lo, std::size_t hi,
                                   std::vector<Violation>& out) {
      for (std::size_t i = lo; i < hi; ++i) {
        idx.query(shapes[i].rect.bloat(halo),
                  [&](const Rect&, std::size_t j) {
                    if (j <= i) return;
                    if (shapes[i].fixed && shapes[j].fixed) return;
                    if (auto v = checkSpacingPair(layer, shapes[i],
                                                  shapes[j])) {
                      out.push_back(*v);
                    }
                  });
      }
    });

    // Per-net merged components: min step, min area, EOL. Components made
    // only of fixed shapes are skipped (library pins are self-clean), and
    // min area exempts components anchored to a pin shape. Nets are
    // independent, so they shard by net range.
    std::map<int, std::vector<const Shape*>> byNet;
    for (const Shape& s : shapes) {
      if (s.net == Shape::kObsNet) continue;
      byNet[s.net].push_back(&s);
    }
    auto& nets = netLists.emplace_back(byNet.begin(), byNet.end());
    rangeChunks(nets.size(), [this, &layer, &nets, halo](
                                 std::size_t lo, std::size_t hi,
                                 std::vector<Violation>& out) {
      // Per-shard buffers, reused across every component of the shard.
      std::vector<Shape> eolContext;
      std::vector<Rect> comp;
      std::vector<geom::BoundaryRing> ringStore;
      for (std::size_t ni = lo; ni < hi; ++ni) {
        const auto& [net, netShapes] = nets[ni];
        // Union-find over this net's shapes by geometric adjacency.
        const std::size_t n = netShapes.size();
        std::vector<std::size_t> parent(n);
        for (std::size_t i = 0; i < n; ++i) parent[i] = i;
        const auto find = [&](std::size_t i) {
          while (parent[i] != i) {
            parent[i] = parent[parent[i]];
            i = parent[i];
          }
          return i;
        };
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = i + 1; j < n; ++j) {
            if (netShapes[i]->rect.intersects(netShapes[j]->rect)) {
              parent[find(i)] = find(j);
            }
          }
        }
        std::map<std::size_t, std::vector<const Shape*>> comps;
        for (std::size_t i = 0; i < n; ++i) {
          comps[find(i)].push_back(netShapes[i]);
        }

        for (const auto& [root, members] : comps) {
          bool anyRouted = false;
          bool anyFixed = false;
          comp.clear();
          for (const Shape* s : members) {
            comp.push_back(s->rect);
            anyRouted = anyRouted || !s->fixed;
            anyFixed = anyFixed || s->fixed;
          }
          if (!anyRouted) continue;
          if (layer.minArea > 0 && !anyFixed) {
            if (auto v = checkMinArea(layer, comp, net)) out.push_back(*v);
          }
          if (!needsBoundary(layer)) continue;
          // The count first: the call may reallocate `ringStore`.
          const std::size_t numRings =
              geom::unionBoundaryInto(comp, ringStore);
          const std::span<const geom::BoundaryRing> rings(ringStore.data(),
                                                          numRings);
          for (Violation v : checkMinStep(layer, rings)) {
            v.netA = net;
            out.push_back(v);
          }
          if (!layer.eol) continue;
          Rect compBox;
          for (const Rect& r : comp) compBox = compBox.merge(r);
          eolContext.clear();
          region_.query(layer.index, compBox.bloat(halo),
                        [&](const Shape& s) { eolContext.push_back(s); });
          for (const Violation& v : checkEol(layer, rings, net, eolContext)) {
            out.push_back(v);
          }
        }
      }
    });
  }

  // Each shard is a node of a (single-layer) job graph: callers that are
  // themselves job-graph nodes degrade to serial via the nested-run rule,
  // and shard slot writes keep the merge below schedule-invariant.
  std::vector<std::vector<Violation>> shardOut(tasks.size());
  util::JobGraph graph;
  graph.addJobRange(tasks.size(),
                    [&](std::size_t t) { tasks[t](shardOut[t]); });
  graph.run(numThreads);

  std::vector<Violation> out;
  for (std::vector<Violation>& shard : shardOut) {
    out.insert(out.end(), shard.begin(), shard.end());
  }
  sortViolations(out);
  // Post-merge totals: shard layout never changes the sorted result, so
  // both counters are thread-count-invariant.
  PAO_COUNTER_INC("pao.drc.check_all_runs");
  PAO_COUNTER_ADD("pao.drc.violations_found", out.size());
  return out;
}

}  // namespace pao::drc
