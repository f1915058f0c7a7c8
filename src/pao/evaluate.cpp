#include "pao/evaluate.hpp"

#include <cstdint>
#include <span>
#include <unordered_map>

#include "drc/verdict_memo.hpp"
#include "geom/grid_index.hpp"
#include "obs/metrics.hpp"
#include "pao/inst_context.hpp"

namespace pao::core {

DirtyApStats countDirtyAps(const db::Design& design,
                           const OracleResult& result) {
  DirtyApStats stats;
  drc::ViaContext scratch;
  drc::DrcWork work;
  for (std::size_t c = 0; c < result.unique.classes.size(); ++c) {
    const ClassAccess& ca = result.classes[c];
    if (ca.pinAps.empty()) continue;
    const InstContext ctx(design, result.unique.classes[c]);
    const std::vector<int>& sig = ctx.signalPins();
    for (std::size_t p = 0; p < ca.pinAps.size(); ++p) {
      for (const AccessPoint& ap : ca.pinAps[p]) {
        ++stats.totalAps;
        const int net = ctx.pinNet(sig[p]);
        const db::ViaDef* via = ap.primaryVia(*design.tech);
        bool clean;
        if (via != nullptr) {
          clean = ctx.engine().isViaClean(*via, ap.loc, net, {}, scratch,
                                          work);
        } else {
          // Planar-only access (macro pins): re-validate the escape stubs of
          // every claimed direction.
          clean = ap.dirs != 0;
          for (const EscapeStub& stub :
               escapeStubs(design.tech->layer(ap.layer), ap.loc)) {
            if ((ap.dirs & stub.dir) != 0 &&
                !ctx.engine().checkWire(stub.rect, ap.layer, net).empty()) {
              clean = false;
            }
          }
        }
        if (!clean) ++stats.dirtyAps;
      }
    }
  }
  work.publish();
  return stats;
}

FailedPinStats countFailedPins(const db::Design& design,
                               const OracleResult& result,
                               std::size_t maxDetails,
                               FailedPinCriterion criterion) {
  FailedPinStats stats;
  const db::Tech& tech = *design.tech;
  const int numInsts = static_cast<int>(design.instances.size());
  const int numNets = static_cast<int>(design.nets.size());

  // Global electrical identity per (instance, master pin), dense: pin p of
  // instance i sits at pinNet[pinOff[i] + p]. It holds the design net index
  // when attached, or a unique synthetic id (>= numNets) otherwise.
  constexpr int kUnattached = -2;
  std::vector<std::size_t> pinOff(design.instances.size() + 1, 0);
  for (int i = 0; i < numInsts; ++i) {
    pinOff[i + 1] = pinOff[i] + design.instances[i].master->pins.size();
  }
  std::vector<int> pinNet(pinOff.back(), kUnattached);
  for (int n = 0; n < numNets; ++n) {
    for (const db::NetTerm& t : design.nets[n].terms) {
      if (t.isIo() || t.pinIdx < 0 ||
          pinOff[t.instIdx] + t.pinIdx >= pinOff[t.instIdx + 1]) {
        continue;
      }
      pinNet[pinOff[t.instIdx] + t.pinIdx] = n;
    }
  }
  int synthetic = numNets;

  // Fixed design context: every instance's pin shapes and obstructions,
  // reserved per layer up front so the bulk load grows each table once.
  drc::DrcEngine engine(tech);
  {
    std::vector<std::size_t> perLayer(tech.layers().size(), 0);
    const auto count = [&](int layer) {
      if (layer >= 0 && layer < static_cast<int>(perLayer.size())) {
        ++perLayer[layer];
      }
    };
    for (const db::Instance& inst : design.instances) {
      for (const db::Pin& pin : inst.master->pins) {
        for (const db::PinShape& s : pin.shapes) count(s.layer);
      }
      for (const db::Obstruction& o : inst.master->obstructions) {
        count(o.layer);
      }
    }
    for (const db::IoPin& p : design.ioPins) count(p.layer);
    engine.region().reserve(perLayer);
  }
  for (int i = 0; i < numInsts; ++i) {
    const db::Instance& inst = design.instances[i];
    const geom::Transform xf = inst.transform();
    const db::Master& master = *inst.master;
    for (int p = 0; p < static_cast<int>(master.pins.size()); ++p) {
      const db::Pin& pin = master.pins[p];
      const bool isSupply =
          pin.use == db::PinUse::kPower || pin.use == db::PinUse::kGround;
      int net;
      if (isSupply) {
        net = drc::Shape::kObsNet;
      } else {
        int& id = pinNet[pinOff[i] + p];
        if (id == kUnattached) id = synthetic++;
        net = id;
      }
      for (const db::PinShape& s : pin.shapes) {
        engine.region().add({xf.apply(s.rect), s.layer, net,
                             drc::ShapeKind::kPin, true});
      }
    }
    for (const db::Obstruction& o : master.obstructions) {
      engine.region().add({xf.apply(o.rect), o.layer, drc::Shape::kObsNet,
                           drc::ShapeKind::kObstruction, true});
    }
  }
  for (const db::IoPin& p : design.ioPins) {
    engine.region().add({p.rect, p.layer, synthetic++,
                         drc::ShapeKind::kIoPin, true});
  }

  // Chosen vias of every net-attached pin, in a side index so each pin can
  // be checked against every *other* pin's via without seeing its own. Via
  // shapes are recomputed from this table when needed, never stored.
  struct PlacedVia {
    const db::ViaDef* via;
    geom::Point loc;
    int net;
  };
  std::vector<PlacedVia> placed;
  struct PinRef {
    int inst;
    int pinPos;  ///< signal-pin position within the master
    int net;
    int placedIdx;  ///< -1 when the pin has no chosen via access
    bool planar;    ///< chosen access is planar-only (macro pins)
  };
  std::vector<PinRef> pins;

  std::unordered_map<const db::Master*, std::vector<int>> sigPins;
  for (int i = 0; i < numInsts; ++i) {
    const db::Master* master = design.instances[i].master;
    auto [sigIt, fresh] = sigPins.try_emplace(master);
    if (fresh) sigIt->second = master->signalPinIndices();
    const std::vector<int>& sig = sigIt->second;
    for (int pos = 0; pos < static_cast<int>(sig.size()); ++pos) {
      const int net = pinNet[pinOff[i] + sig[pos]];
      // Only count pins attached to real design nets.
      if (net < 0 || net >= numNets) continue;
      PinRef ref{i, pos, net, -1, false};
      const auto chosen = result.chosenAp(design, i, pos);
      if (chosen && chosen->ap->primaryVia(tech) != nullptr) {
        ref.placedIdx = static_cast<int>(placed.size());
        placed.push_back({chosen->ap->primaryVia(tech), chosen->loc, net});
      } else if (chosen && chosen->ap->dirs != 0) {
        // Planar-only access (macro pins): counts as accessible; the stub
        // legality was validated at generation and re-checked by
        // countDirtyAps.
        ref.planar = true;
      }
      pins.push_back(ref);
    }
  }
  // The identity table is done; free it before the checks grow the memo.
  pinNet = {};
  pinOff = {};

  const auto viaBox = [](const PlacedVia& pv) {
    return pv.via->botEncAt(pv.loc)
        .merge(pv.via->cutAt(pv.loc))
        .merge(pv.via->topEncAt(pv.loc));
  };
  geom::GridIndex<int> viaIndex;
  viaIndex.reserve(placed.size());
  for (int v = 0; v < static_cast<int>(placed.size()); ++v) {
    viaIndex.insert(viaBox(placed[v]), v);
  }

  stats.totalPins = pins.size();

  // Every via verdict goes through one scratch context and the clean-verdict
  // memo; violations are always judged afresh (see drc/verdict_memo.hpp).
  drc::ViaContext scratch;
  drc::DrcWork work;
  drc::ViaVerdictMemo memo;
  std::uint64_t memoHits = 0;
  std::uint64_t memoMisses = 0;
  std::vector<drc::Violation> violations;
  const auto judge = [&](const db::ViaDef& via, geom::Point loc, int net,
                         std::span<const drc::Shape> extra) {
    engine.gatherVia(via, loc, net, extra, scratch);
    violations.clear();
    if (memo.knownClean(scratch)) {
      ++memoHits;
      return true;
    }
    ++memoMisses;
    engine.judgeVia(scratch, violations, work);
    if (violations.empty()) memo.recordClean();
    return violations.empty();
  };
  const auto fail = [&](const PinRef& ref,
                        const std::vector<drc::Violation>& why) {
    ++stats.failedPins;
    if (stats.details.size() < maxDetails) {
      stats.details.push_back({ref.inst, ref.pinPos, why});
    }
  };

  if (criterion == FailedPinCriterion::kAnyAp) {
    // Lenient criterion: a pin passes when ANY of its generated access
    // points drops a clean via against the fixed context.
    for (const PinRef& ref : pins) {
      const int cls = result.unique.classOf[ref.inst];
      bool anyClean = false;
      if (cls >= 0 && !result.classes[cls].pinAps.empty()) {
        const db::UniqueInstance& ui = result.unique.classes[cls];
        const geom::Point delta =
            design.instances[ref.inst].origin -
            design.instances[ui.representative].origin;
        for (const AccessPoint& ap :
             result.classes[cls].pinAps[ref.pinPos]) {
          const db::ViaDef* via = ap.primaryVia(tech);
          if (via != nullptr && judge(*via, ap.loc + delta, ref.net, {})) {
            anyClean = true;
            break;
          }
        }
      }
      if (!anyClean) fail(ref, {});
    }
  } else {
    std::vector<drc::Shape> extra;
    for (const PinRef& ref : pins) {
      if (ref.placedIdx < 0) {
        if (!ref.planar) fail(ref, {});
        continue;
      }
      const PlacedVia& pv = placed[ref.placedIdx];
      // Context: all other pins' chosen vias near this one. Same-net vias
      // (multi-pin nets) are not conflicts; they come along anyway —
      // checkVia treats same-net context as merge candidates.
      extra.clear();
      viaIndex.query(viaBox(pv).bloat(2048), [&](const geom::Rect&, int v) {
        if (v == ref.placedIdx) return;
        engine.appendViaShapes(*placed[v].via, placed[v].loc, placed[v].net,
                               extra);
      });
      if (!judge(*pv.via, pv.loc, pv.net, extra)) fail(ref, violations);
    }
  }
  work.publish();
  PAO_COUNTER_ADD("pao.eval.verdict_memo_hits", memoHits);
  PAO_COUNTER_ADD("pao.eval.verdict_memo_misses", memoMisses);
  return stats;
}

}  // namespace pao::core
