#include "pao/evaluate.hpp"

#include <map>

#include "geom/grid_index.hpp"
#include "pao/inst_context.hpp"

namespace pao::core {

DirtyApStats countDirtyAps(const db::Design& design,
                           const OracleResult& result) {
  DirtyApStats stats;
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
          clean = ctx.engine().isViaClean(*via, ap.loc, net);
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
  return stats;
}

FailedPinStats countFailedPins(const db::Design& design,
                               const OracleResult& result,
                               std::size_t maxDetails,
                               FailedPinCriterion criterion) {
  FailedPinStats stats;

  // Global electrical identity per (instance, master-pin): the design net
  // index when attached, or a unique synthetic id otherwise.
  std::map<std::pair<int, int>, int> netOf;
  for (int n = 0; n < static_cast<int>(design.nets.size()); ++n) {
    for (const db::NetTerm& t : design.nets[n].terms) {
      if (!t.isIo()) netOf[{t.instIdx, t.pinIdx}] = n;
    }
  }
  int synthetic = static_cast<int>(design.nets.size());

  // Fixed design context: every instance's pin shapes and obstructions.
  drc::DrcEngine engine(*design.tech);
  for (int i = 0; i < static_cast<int>(design.instances.size()); ++i) {
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
      } else if (const auto it = netOf.find({i, p}); it != netOf.end()) {
        net = it->second;
      } else {
        net = synthetic++;
        netOf[{i, p}] = net;
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
  // be checked against every *other* pin's via without seeing its own.
  struct PlacedVia {
    int inst;
    int pinPos;  ///< signal-pin position within the master
    const db::ViaDef* via;
    geom::Point loc;
    int net;
  };
  std::vector<PlacedVia> placed;
  struct PinRef {
    int inst;
    int pinPos;
    int net;
    int placedIdx;  ///< -1 when the pin has no chosen via access
    bool planar;    ///< chosen access is planar-only (macro pins)
  };
  std::vector<PinRef> pins;

  for (int i = 0; i < static_cast<int>(design.instances.size()); ++i) {
    const db::Master& master = *design.instances[i].master;
    const std::vector<int> sig = master.signalPinIndices();
    for (int pos = 0; pos < static_cast<int>(sig.size()); ++pos) {
      const auto netIt = netOf.find({i, sig[pos]});
      if (netIt == netOf.end()) continue;  // pin not attached to any net
      // Only count pins attached to real design nets.
      if (netIt->second >= static_cast<int>(design.nets.size())) continue;
      PinRef ref{i, pos, netIt->second, -1, false};
      const auto chosen = result.chosenAp(design, i, pos);
      if (chosen && chosen->ap->primaryVia(*design.tech) != nullptr) {
        ref.placedIdx = static_cast<int>(placed.size());
        placed.push_back(
            {i, pos, chosen->ap->primaryVia(*design.tech), chosen->loc, netIt->second});
      } else if (chosen && chosen->ap->dirs != 0) {
        // Planar-only access (macro pins): counts as accessible; the stub
        // legality was validated at generation and re-checked by
        // countDirtyAps.
        ref.planar = true;
      }
      pins.push_back(ref);
    }
  }

  geom::GridIndex<int> viaIndex;
  std::vector<std::vector<drc::Shape>> viaShapes(placed.size());
  for (int v = 0; v < static_cast<int>(placed.size()); ++v) {
    const PlacedVia& pv = placed[v];
    viaShapes[v] = engine.viaShapes(*pv.via, pv.loc, pv.net);
    geom::Rect bbox;
    for (const drc::Shape& s : viaShapes[v]) bbox = bbox.merge(s.rect);
    viaIndex.insert(bbox, v);
  }

  stats.totalPins = pins.size();

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
          if (ap.primaryVia(*design.tech) == nullptr) continue;
          if (engine.isViaClean(*ap.primaryVia(*design.tech), ap.loc + delta, ref.net)) {
            anyClean = true;
            break;
          }
        }
      }
      if (!anyClean) {
        ++stats.failedPins;
        if (stats.details.size() < maxDetails) {
          stats.details.push_back({ref.inst, ref.pinPos, {}});
        }
      }
    }
    return stats;
  }

  for (const PinRef& ref : pins) {
    if (ref.placedIdx < 0) {
      if (!ref.planar) {
        ++stats.failedPins;
        if (stats.details.size() < maxDetails) {
          stats.details.push_back({ref.inst, ref.pinPos, {}});
        }
      }
      continue;
    }
    const PlacedVia& pv = placed[ref.placedIdx];
    // Context: all other pins' chosen vias near this one.
    std::vector<drc::Shape> extra;
    geom::Rect query;
    for (const drc::Shape& s : viaShapes[ref.placedIdx]) {
      query = query.merge(s.rect);
    }
    viaIndex.query(query.bloat(2048), [&](const geom::Rect&, int v) {
      if (v == ref.placedIdx) return;
      // Same-net vias (multi-pin nets) are not conflicts; include them
      // anyway — checkVia treats same-net context as merge candidates.
      for (const drc::Shape& s : viaShapes[v]) extra.push_back(s);
    });
    const std::vector<drc::Violation> violations =
        engine.checkVia(*pv.via, pv.loc, pv.net, extra);
    if (!violations.empty()) {
      ++stats.failedPins;
      if (stats.details.size() < maxDetails) {
        stats.details.push_back({ref.inst, ref.pinPos, violations});
      }
    }
  }
  return stats;
}

}  // namespace pao::core
