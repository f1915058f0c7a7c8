#include "pao/cluster_select.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/arena.hpp"
#include "util/cpu_time.hpp"
#include "util/fault.hpp"

namespace pao::core {

namespace {
constexpr long long kInf = std::numeric_limits<long long>::max() / 4;

/// Net id of master pin `pin` in a pair check, for the instance on `side`
/// (0 = left, 1 = right). Distinct pins of the pair never share an id.
int pairNetId(int side, int pin) { return 2 * pin + side; }
}  // namespace

std::vector<std::vector<int>> buildClusters(const db::Design& design) {
  // Group instances by row, sort by x, split at gaps. A multi-height
  // instance spans several rows and joins the cluster of each row its bbox
  // covers (its pattern choice is then pinned after the first cluster that
  // decides it — see clusterDeps()).
  std::vector<std::vector<int>> clusters;
  std::map<geom::Coord, std::vector<int>> byRow;
  std::vector<geom::Coord> rowYs;
  for (const db::Instance& inst : design.instances) {
    rowYs.push_back(inst.origin.y);
  }
  std::sort(rowYs.begin(), rowYs.end());
  rowYs.erase(std::unique(rowYs.begin(), rowYs.end()), rowYs.end());
  for (int i = 0; i < static_cast<int>(design.instances.size()); ++i) {
    const geom::Rect bbox = design.instances[i].bbox();
    // The rows with y in [ylo, yhi), found by bisection: every session
    // mutation rebuilds the clusters, so a scan of all rows per instance
    // would dominate its cost on large designs.
    for (auto y = std::lower_bound(rowYs.begin(), rowYs.end(), bbox.ylo);
         y != rowYs.end() && *y < bbox.yhi; ++y) {
      byRow[*y].push_back(i);
    }
  }
  for (auto& [y, insts] : byRow) {
    std::sort(insts.begin(), insts.end(), [&](int a, int b) {
      return design.instances[a].origin.x < design.instances[b].origin.x;
    });
    std::vector<int> cur;
    geom::Coord prevEnd = 0;
    for (const int idx : insts) {
      const db::Instance& inst = design.instances[idx];
      if (!cur.empty() && inst.origin.x > prevEnd) {
        clusters.push_back(std::move(cur));
        cur.clear();
      }
      cur.push_back(idx);
      prevEnd = inst.bbox().xhi;
    }
    if (!cur.empty()) clusters.push_back(std::move(cur));
  }
  PAO_COUNTER_ADD("pao.step3.clusters_built", clusters.size());
  return clusters;
}

std::vector<std::vector<std::size_t>> clusterDeps(
    const std::vector<std::vector<int>>& clusters) {
  std::vector<std::vector<std::size_t>> deps(clusters.size());
  // lastCluster[inst]: the most recent earlier cluster containing inst.
  std::unordered_map<int, std::size_t> lastCluster;
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    for (const int inst : clusters[c]) {
      const auto it = lastCluster.find(inst);
      if (it != lastCluster.end()) deps[c].push_back(it->second);
    }
    std::sort(deps[c].begin(), deps[c].end());
    deps[c].erase(std::unique(deps[c].begin(), deps[c].end()), deps[c].end());
    for (const int inst : clusters[c]) lastCluster[inst] = c;
  }
  return deps;
}

ClusterSelector::ClusterSelector(const db::Design& design,
                                 const db::UniqueInstances& unique,
                                 const std::vector<ClassAccess>& classes,
                                 ClusterSelectConfig cfg)
    : design_(&design),
      unique_(&unique),
      classes_(&classes),
      cfg_(cfg),
      pairEngine_(*design.tech) {}

std::vector<ClusterSelector::PlacedAp> ClusterSelector::boundaryAps(
    int inst, int pat, bool rightSide) const {
  std::vector<PlacedAp> out;
  const int cls = unique_->classOf[inst];
  if (cls < 0) return out;
  const ClassAccess& ca = (*classes_)[cls];
  if (pat < 0 || pat >= static_cast<int>(ca.patterns.size())) return out;
  const db::UniqueInstance& ui = unique_->classes[cls];
  const geom::Point delta = design_->instances[inst].origin;

  const auto add = [&](int pinPos) {
    const int apIdx = ca.patterns[pat].apIdx[pinPos];
    if (apIdx < 0) return;
    const AccessPoint& ap = ca.pinAps[pinPos][apIdx];
    // Net identity folds the pair side and MASTER pin index together — the
    // same scheme edgeShapes() uses, so a via and its own pin bar share a
    // net in the pairwise check.
    const int masterPin = ui.master->signalPinIndices()[pinPos];
    out.push_back({&ap, ap.loc + delta,
                   pairNetId(rightSide ? 0 : 1, masterPin)});
  };

  if (ca.pinOrder.empty()) return out;
  if (cfg_.boundaryPinsOnly) {
    add(rightSide ? ca.pinOrder.back() : ca.pinOrder.front());
  } else {
    for (const int pinPos : ca.pinOrder) add(pinPos);
  }
  return out;
}

std::vector<drc::Shape> ClusterSelector::edgeShapes(int inst, int side,
                                                    geom::Coord boundaryX,
                                                    geom::Coord halo) const {
  std::vector<drc::Shape> out;
  const db::Instance& instance = design_->instances[inst];
  const geom::Transform xf = instance.transform();
  const geom::Rect band{boundaryX - halo, instance.bbox().ylo - halo,
                        boundaryX + halo, instance.bbox().yhi + halo};
  const db::Master& master = *instance.master;
  for (int p = 0; p < static_cast<int>(master.pins.size()); ++p) {
    const db::Pin& pin = master.pins[p];
    const bool isSupply =
        pin.use == db::PinUse::kPower || pin.use == db::PinUse::kGround;
    const int net = isSupply ? drc::Shape::kObsNet : pairNetId(side, p);
    for (const db::PinShape& s : pin.shapes) {
      const geom::Rect r = xf.apply(s.rect);
      if (r.intersects(band)) {
        out.push_back({r, s.layer, net, drc::ShapeKind::kPin, true});
      }
    }
  }
  for (const db::Obstruction& o : master.obstructions) {
    const geom::Rect r = xf.apply(o.rect);
    if (r.intersects(band)) {
      out.push_back({r, o.layer, drc::Shape::kObsNet,
                     drc::ShapeKind::kObstruction, true});
    }
  }
  return out;
}

std::size_t ClusterSelector::hashPairKey(const PairKey& k) {
  // splitmix64 finalizer over the fields folded in turn.
  std::uint64_t h = 0;
  for (const std::uint64_t v :
       {static_cast<std::uint64_t>(k.clsA), static_cast<std::uint64_t>(k.patA),
        static_cast<std::uint64_t>(k.clsB), static_cast<std::uint64_t>(k.patB),
        static_cast<std::uint64_t>(k.dx), static_cast<std::uint64_t>(k.dy)}) {
    h = (h ^ v) + 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    h ^= h >> 31;
  }
  return static_cast<std::size_t>(h);
}

bool ClusterSelector::patternsCompatible(int instA, int patA, int instB,
                                         int patB) {
  const int clsA = unique_->classOf[instA];
  const int clsB = unique_->classOf[instB];
  const geom::Point oa = design_->instances[instA].origin;
  const geom::Point ob = design_->instances[instB].origin;
  const PairKey key{clsA, patA, clsB, patB, ob.x - oa.x, ob.y - oa.y};
  PairStripe& stripe = pairMemo_[hashPairKey(key) % kPairStripes];
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    const auto it = stripe.clean.find(key);
    if (it != stripe.clean.end()) return it->second;
  }

  // Only the up-vias of boundary access points participate (Sec. III-C);
  // each one is checked against the facing via and the facing instance's
  // fixed shapes near the shared cell edge.
  const geom::Coord boundaryX = design_->instances[instB].origin.x;
  geom::Coord halo = 0;
  for (const db::Layer& l : design_->tech->layers()) {
    halo = std::max(halo, drc::maxSpacingHalo(l) * 2);
  }
  const std::vector<drc::Shape> edgeA =
      edgeShapes(instA, /*side=*/0, boundaryX, halo);
  const std::vector<drc::Shape> edgeB =
      edgeShapes(instB, /*side=*/1, boundaryX, halo);

  bool clean = true;
  const std::vector<PlacedAp> left = boundaryAps(instA, patA, /*right=*/true);
  const std::vector<PlacedAp> right =
      boundaryAps(instB, patB, /*right=*/false);
  const db::Tech& tech = *design_->tech;
  // Probes and their DRC work are tallied locally and committed only if
  // this thread's result wins the memo insert below, which makes the
  // published counts equal to the serial ones at any thread count (see
  // numPairChecks()). The via-check buffers are per worker thread.
  std::size_t localChecks = 0;
  drc::DrcWork work;
  thread_local drc::ViaScratch scratch;
  thread_local std::vector<drc::Shape> extra;
  const auto viaClean = [&](const PlacedAp& ap,
                            const std::vector<drc::Shape>& ownEdge,
                            const std::vector<drc::Shape>& otherEdge,
                            const PlacedAp* other) {
    if (ap.ap->primaryVia(tech) == nullptr) return true;
    // The via's own cell shapes come along (its own pin bar shares the via's
    // net id) so merged-component rules see the real pin geometry; conflicts
    // against the own cell were already cleared in Step 2.
    extra.assign(otherEdge.begin(), otherEdge.end());
    extra.insert(extra.end(), ownEdge.begin(), ownEdge.end());
    if (other != nullptr && other->ap->primaryVia(tech) != nullptr) {
      pairEngine_.appendViaShapes(*other->ap->primaryVia(tech), other->loc,
                                  other->net, extra);
    }
    ++localChecks;
    return pairEngine_.isViaClean(*ap.ap->primaryVia(tech), ap.loc, ap.net,
                                  extra, scratch, work);
  };
  for (const PlacedAp& a : left) {
    for (const PlacedAp& b : right) {
      if (!viaClean(a, edgeA, edgeB, &b) || !viaClean(b, edgeB, edgeA, &a)) {
        clean = false;
        break;
      }
    }
    if (!clean) break;
    // A boundary via may clip the neighbor's fixed shapes even when the
    // neighbor has no via nearby.
    if (right.empty() && !viaClean(a, edgeA, edgeB, nullptr)) clean = false;
  }
  if (left.empty()) {
    for (const PlacedAp& b : right) {
      if (!viaClean(b, edgeB, edgeA, nullptr)) {
        clean = false;
        break;
      }
    }
  }
  bool committed = false;
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    committed = stripe.clean.emplace(key, clean).second;
  }
  if (committed) {
    numPairChecks_.fetch_add(localChecks, std::memory_order_relaxed);
    PAO_COUNTER_ADD("pao.step3.pair_checks", localChecks);
    work.publish();
  }
  return clean;
}

void ClusterSelector::armBudget() {
  expired_.store(false, std::memory_order_relaxed);
  expiredClusters_.store(0, std::memory_order_relaxed);
  budgetArmed_ = cfg_.budgetSeconds > 0;
  if (budgetArmed_) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(cfg_.budgetSeconds));
  }
}

bool ClusterSelector::deadlineExpired() {
  if (expired_.load(std::memory_order_relaxed)) return true;
  bool hit = PAO_FAULT_POINT("step3.deadline");
  if (!hit && budgetArmed_ && std::chrono::steady_clock::now() >= deadline_) {
    hit = true;
  }
  if (hit) expired_.store(true, std::memory_order_relaxed);
  return hit;
}

void ClusterSelector::fallbackSelect(const std::vector<int>& cluster,
                                     std::vector<int>& chosen) {
  expiredClusters_.fetch_add(1, std::memory_order_relaxed);
  PAO_COUNTER_INC("pao.step3.budget_fallbacks");
  for (const int inst : cluster) {
    if (chosen[inst] >= 0) continue;  // pinned by an earlier cluster
    const int cls = unique_->classOf[inst];
    if (cls < 0) continue;
    const std::vector<AccessPattern>& pats = (*classes_)[cls].patterns;
    int best = -1;
    long long bestCost = kInf;
    for (int p = 0; p < static_cast<int>(pats.size()); ++p) {
      if (pats[p].cost < bestCost) {
        bestCost = pats[p].cost;
        best = p;
      }
    }
    chosen[inst] = best;
  }
}

void ClusterSelector::selectCluster(const std::vector<int>& cluster,
                                    std::vector<int>& chosen) {
  const int n = static_cast<int>(cluster.size());

  const auto numPatterns = [&](int pos) {
    const int cls = unique_->classOf[cluster[pos]];
    return cls < 0 ? 0
                   : static_cast<int>((*classes_)[cls].patterns.size());
  };
  const auto patternCost = [&](int pos, int p) {
    const int cls = unique_->classOf[cluster[pos]];
    return (*classes_)[cls].patterns[p].cost;
  };

  // All DP state is per-job scratch in the worker's arena: the active list,
  // the state offsets, and one flat cost/prev pair ((instance, pattern)
  // vertices at [off[i], off[i+1])) instead of a vector-of-vectors.
  util::ArenaScope scratch(util::scratchArena());

  // Instances without patterns (fillers, pinless cells) are transparent:
  // they keep -1 and the DP skips over them. Compact the cluster first.
  util::ArenaVector<int> active;
  active.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (numPatterns(i) > 0) active.push_back(i);
  }
  if (active.empty()) return;
  if (deadlineExpired()) {
    // Budget spent: commit best-so-far instead of running the DP. Not
    // counted as a DP run.
    fallbackSelect(cluster, chosen);
    return;
  }
  ++numDpRuns_;
  // Deterministic per cluster: one DP per cluster regardless of schedule.
  PAO_COUNTER_INC("pao.step3.cluster_dp_runs");
  PAO_HISTOGRAM_OBSERVE("pao.step3.cluster_size", active.size());
  PAO_TRACE_SCOPE("step3.cluster_dp");
  const double cpu0 = util::threadCpuSeconds();
  struct CpuAccumulator {
    std::atomic<long long>* nanos;
    double cpu0;
    ~CpuAccumulator() {
      nanos->fetch_add(
          std::llround((util::threadCpuSeconds() - cpu0) * 1e9),
          std::memory_order_relaxed);
    }
  } cpuAccum{&dpCpuNanos_, cpu0};

  const int an = static_cast<int>(active.size());
  util::ArenaVector<int> off(static_cast<std::size_t>(an) + 1, 0);
  for (int i = 0; i < an; ++i) off[i + 1] = off[i] + numPatterns(active[i]);
  util::ArenaVector<long long> cost(static_cast<std::size_t>(off[an]), kInf);
  util::ArenaVector<int> prev(static_cast<std::size_t>(off[an]), -1);
  // A pattern already chosen by an earlier (multi-height) cluster pass is
  // pinned: the DP may only use that vertex for the instance.
  const auto allowed = [&](int pos, int p) {
    const int pre = chosen[cluster[pos]];
    return pre < 0 || pre == p;
  };
  for (int p = 0; p < numPatterns(active[0]); ++p) {
    if (!allowed(active[0], p)) continue;
    cost[p] = patternCost(active[0], p);
  }
  for (int i = 1; i < an; ++i) {
    const int instB = cluster[active[i]];
    const int instA = cluster[active[i - 1]];
    // Patterns only interact across a shared cell edge; when an inactive
    // (pattern-less) instance separates them, the pair is compatible.
    const bool adjacent = active[i] == active[i - 1] + 1;
    for (int q = 0; q < numPatterns(active[i]); ++q) {
      if (!allowed(active[i], q)) continue;
      for (int p = 0; p < numPatterns(active[i - 1]); ++p) {
        if (cost[off[i - 1] + p] >= kInf) continue;
        long long ec = patternCost(active[i], q);
        if (adjacent && !patternsCompatible(instA, p, instB, q)) {
          ec += kDrcCost;
        }
        if (cost[off[i - 1] + p] + ec < cost[off[i] + q]) {
          cost[off[i] + q] = cost[off[i - 1] + p] + ec;
          prev[off[i] + q] = p;
        }
      }
    }
  }

  // Trace back.
  int best = -1;
  long long bestCost = kInf;
  for (int q = 0; q < off[an] - off[an - 1]; ++q) {
    if (cost[off[an - 1] + q] < bestCost) {
      bestCost = cost[off[an - 1] + q];
      best = q;
    }
  }
  for (int i = an - 1; i >= 0 && best >= 0; --i) {
    chosen[cluster[active[i]]] = best;
    best = prev[off[i] + best];
  }
}

}  // namespace pao::core
