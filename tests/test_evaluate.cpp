// Evaluator tests: dirty-AP counting, failed-pin criteria, diagnostics.
#include "pao/evaluate.hpp"

#include <gtest/gtest.h>

#include <map>

#include "benchgen/testcase.hpp"
#include "geom/grid_index.hpp"

namespace pao::core {
namespace {

class EvaluateFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    benchgen::TestcaseSpec spec = benchgen::ispd18Suite()[0];
    spec.numCells = 150;
    spec.numNets = 80;
    tc_ = new benchgen::Testcase(benchgen::generate(spec, 1.0));
  }
  static void TearDownTestSuite() {
    delete tc_;
    tc_ = nullptr;
  }
  static benchgen::Testcase* tc_;
};

benchgen::Testcase* EvaluateFixture::tc_ = nullptr;

TEST_F(EvaluateFixture, DirtyApTotalsMatchOracleTotals) {
  PinAccessOracle oracle(*tc_->design, withBcaConfig());
  const OracleResult res = oracle.run();
  const DirtyApStats stats = countDirtyAps(*tc_->design, res);
  EXPECT_EQ(stats.totalAps, res.totalAps());
}

TEST_F(EvaluateFixture, ForcedBadChoiceIsDetected) {
  // Sabotage the result: point one instance at a pattern index that does
  // not exist; its pins must then count as failed.
  PinAccessOracle oracle(*tc_->design, withBcaConfig());
  OracleResult res = oracle.run();
  const FailedPinStats before = countFailedPins(*tc_->design, res);
  ASSERT_EQ(before.failedPins, 0u);

  int victim = -1;
  std::size_t victimPins = 0;
  for (const db::Net& net : tc_->design->nets) {
    for (const db::NetTerm& t : net.terms) {
      if (t.isIo()) continue;
      if (victim < 0) victim = t.instIdx;
      if (t.instIdx == victim) ++victimPins;
    }
  }
  ASSERT_GE(victim, 0);
  res.chosenPattern[victim] = -1;
  const FailedPinStats after = countFailedPins(*tc_->design, res);
  EXPECT_EQ(after.failedPins, victimPins);
}

TEST_F(EvaluateFixture, DetailsAreCapped) {
  PinAccessOracle oracle(*tc_->design, legacyConfig());
  const OracleResult res = oracle.run();
  const FailedPinStats stats =
      countFailedPins(*tc_->design, res, 3, FailedPinCriterion::kChosenAp);
  EXPECT_GT(stats.failedPins, 3u);
  EXPECT_EQ(stats.details.size(), 3u);
}

TEST_F(EvaluateFixture, AnyApCriterionIsLenient) {
  PinAccessOracle oracle(*tc_->design, legacyConfig());
  const OracleResult res = oracle.run();
  const FailedPinStats strict =
      countFailedPins(*tc_->design, res, 0, FailedPinCriterion::kChosenAp);
  const FailedPinStats lenient =
      countFailedPins(*tc_->design, res, 0, FailedPinCriterion::kAnyAp);
  EXPECT_LE(lenient.failedPins, strict.failedPins);
  EXPECT_EQ(lenient.totalPins, strict.totalPins);
}

TEST_F(EvaluateFixture, OnlyNetAttachedPinsAreCounted) {
  PinAccessOracle oracle(*tc_->design, withBcaConfig());
  const OracleResult res = oracle.run();
  const FailedPinStats stats = countFailedPins(*tc_->design, res);
  EXPECT_EQ(stats.totalPins, tc_->design->numNetInstTerms());
}

/// The strict failed-pin verdicts recomputed the direct way: the fixed
/// context built from an (instance, pin) -> net map, every chosen via's
/// shapes materialized, and one plain DrcEngine::checkVia per pin against
/// the other vias within 2048 DBU — no scratch reuse and no verdict memo.
/// Returns one detail per net-attached pin, in pin order; pins with a clean
/// via or planar access are left out.
std::vector<FailedPinDetail> directFailedPins(const db::Design& design,
                                              const OracleResult& result) {
  const db::Tech& tech = *design.tech;
  std::map<std::pair<int, int>, int> netOf;
  for (int n = 0; n < static_cast<int>(design.nets.size()); ++n) {
    for (const db::NetTerm& t : design.nets[n].terms) {
      if (!t.isIo()) netOf[{t.instIdx, t.pinIdx}] = n;
    }
  }
  int synthetic = static_cast<int>(design.nets.size());
  drc::DrcEngine engine(tech);
  for (int i = 0; i < static_cast<int>(design.instances.size()); ++i) {
    const db::Instance& inst = design.instances[i];
    const geom::Transform xf = inst.transform();
    for (int p = 0; p < static_cast<int>(inst.master->pins.size()); ++p) {
      const db::Pin& pin = inst.master->pins[p];
      int net = drc::Shape::kObsNet;
      if (pin.use != db::PinUse::kPower && pin.use != db::PinUse::kGround) {
        const auto [it, fresh] = netOf.try_emplace({i, p}, synthetic);
        if (fresh) ++synthetic;
        net = it->second;
      }
      for (const db::PinShape& s : pin.shapes) {
        engine.region().add({xf.apply(s.rect), s.layer, net,
                             drc::ShapeKind::kPin, true});
      }
    }
    for (const db::Obstruction& o : inst.master->obstructions) {
      engine.region().add({xf.apply(o.rect), o.layer, drc::Shape::kObsNet,
                           drc::ShapeKind::kObstruction, true});
    }
  }
  for (const db::IoPin& p : design.ioPins) {
    engine.region().add(
        {p.rect, p.layer, synthetic++, drc::ShapeKind::kIoPin, true});
  }

  struct Pin {
    int inst;
    int pos;
    int placed;  ///< index into `shapes`, -1 without a chosen via
    bool planar;
  };
  std::vector<Pin> pins;
  std::vector<std::vector<drc::Shape>> shapes;
  std::vector<std::tuple<const db::ViaDef*, geom::Point, int>> vias;
  geom::GridIndex<int> index;
  for (int i = 0; i < static_cast<int>(design.instances.size()); ++i) {
    const std::vector<int> sig =
        design.instances[i].master->signalPinIndices();
    for (int pos = 0; pos < static_cast<int>(sig.size()); ++pos) {
      const auto it = netOf.find({i, sig[pos]});
      if (it == netOf.end() ||
          it->second >= static_cast<int>(design.nets.size())) {
        continue;
      }
      Pin pin{i, pos, -1, false};
      const auto chosen = result.chosenAp(design, i, pos);
      const db::ViaDef* via =
          chosen ? chosen->ap->primaryVia(tech) : nullptr;
      if (via != nullptr) {
        pin.placed = static_cast<int>(shapes.size());
        shapes.push_back(engine.viaShapes(*via, chosen->loc, it->second));
        vias.emplace_back(via, chosen->loc, it->second);
        geom::Rect box;
        for (const drc::Shape& s : shapes.back()) box = box.merge(s.rect);
        index.insert(box, pin.placed);
      } else {
        pin.planar = chosen && chosen->ap->dirs != 0;
      }
      pins.push_back(pin);
    }
  }

  std::vector<FailedPinDetail> out;
  for (const Pin& pin : pins) {
    if (pin.placed < 0) {
      if (!pin.planar) out.push_back({pin.inst, pin.pos, {}});
      continue;
    }
    geom::Rect box;
    for (const drc::Shape& s : shapes[pin.placed]) box = box.merge(s.rect);
    std::vector<drc::Shape> extra;
    index.query(box.bloat(2048), [&](const geom::Rect&, int v) {
      if (v == pin.placed) return;
      extra.insert(extra.end(), shapes[v].begin(), shapes[v].end());
    });
    const auto& [via, loc, net] = vias[pin.placed];
    std::vector<drc::Violation> violations =
        engine.checkVia(*via, loc, net, extra);
    if (!violations.empty()) {
      out.push_back({pin.inst, pin.pos, std::move(violations)});
    }
  }
  return out;
}

void expectSameDetails(const std::vector<FailedPinDetail>& got,
                       const std::vector<FailedPinDetail>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].instIdx, want[k].instIdx) << "detail " << k;
    EXPECT_EQ(got[k].sigPinPos, want[k].sigPinPos) << "detail " << k;
    EXPECT_EQ(got[k].violations, want[k].violations) << "detail " << k;
  }
}

TEST_F(EvaluateFixture, EveryVerdictMatchesADirectCheckVia) {
  benchgen::TestcaseSpec mixed = benchgen::mixedSpec();
  const benchgen::Testcase small = benchgen::generate(mixed, 0.1);
  std::size_t failures = 0;
  std::size_t withViolations = 0;
  for (const db::Design* design : {tc_->design.get(), small.design.get()}) {
    for (const OracleConfig& cfg :
         {withBcaConfig(), withoutBcaConfig(), legacyConfig()}) {
      PinAccessOracle oracle(*design, cfg);
      const OracleResult res = oracle.run();
      const FailedPinStats stats = countFailedPins(
          *design, res, static_cast<std::size_t>(-1),
          FailedPinCriterion::kChosenAp);
      const std::vector<FailedPinDetail> want =
          directFailedPins(*design, res);
      EXPECT_EQ(stats.failedPins, want.size());
      expectSameDetails(stats.details, want);
      failures += want.size();
      for (const FailedPinDetail& d : want) {
        withViolations += d.violations.empty() ? 0 : 1;
      }
    }
  }
  // The designs must exercise failing vias, not only missing access.
  EXPECT_GT(failures, 0u);
  EXPECT_GT(withViolations, 0u);
}

}  // namespace
}  // namespace pao::core
