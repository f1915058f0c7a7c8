// Step 3 (cluster-based pattern selection) through the session pipeline —
// the one scheduler production runs: Steps 1-2 per class, then each
// cluster's DP as a job-graph node (OracleSession, behind
// PinAccessOracle::run() and pao_cli analyze).
#include "pao/cluster_select.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "pao/oracle.hpp"
#include "pao/session.hpp"
#include "test_util.hpp"

namespace pao::core {
namespace {

using geom::Point;
using geom::Rect;

/// A cell whose boundary pins sit close enough to the edges that two
/// abutting instances' same-y boundary vias conflict, while staggered-y
/// choices are compatible: pin A near the left edge, pin Z near the right.
/// (Tiny tech: cell 1200 wide, enclosure reach 150+50, spacing 100.)
class ClusterFixture : public ::testing::Test {
 protected:
  void buildDesign(const std::vector<Point>& origins,
                   int numPatterns = 3) {
    td_ = test::makeTinyDesign({{0, Rect{150, 300, 250, 1100}}});
    db::Master* m = const_cast<db::Master*>(td_.lib->findMaster("CELL"));
    m->pins[0].shapes[0].rect = Rect{150, 300, 250, 1100};  // A, left
    db::Pin& z = m->pins.emplace_back();
    z.name = "Z";
    z.use = db::PinUse::kSignal;
    z.shapes.push_back({0, Rect{1010, 300, 1110, 1100}});  // near right edge

    db::Design& d = *td_.design;
    d.instances.clear();
    for (std::size_t i = 0; i < origins.size(); ++i) {
      db::Instance inst;
      inst.name = "u" + std::to_string(i);
      inst.master = m;
      inst.origin = origins[i];
      inst.orient = geom::Orient::R0;
      d.instances.push_back(inst);
    }
    d.buildInstanceIndex();
    cfg_ = OracleConfig{};
    cfg_.patternGen.numPatterns = numPatterns;
  }

  /// Steps 1-3 over the fixture design, read-only.
  std::unique_ptr<OracleSession> analyze() const {
    return std::make_unique<OracleSession>(
        static_cast<const db::Design&>(*td_.design), cfg_);
  }

  test::TinyDesign td_;
  OracleConfig cfg_;
};

TEST_F(ClusterFixture, ClustersSplitAtGaps) {
  buildDesign({{0, 0}, {1200, 0}, {3600, 0}, {0, 1200}});
  const std::vector<std::vector<int>> clusters = buildClusters(*td_.design);
  ASSERT_EQ(clusters.size(), 3u);
  EXPECT_EQ(clusters[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(clusters[1], (std::vector<int>{2}));
  EXPECT_EQ(clusters[2], (std::vector<int>{3}));
  EXPECT_EQ(analyze()->stats().lastClusterCount, 3u);
}

TEST_F(ClusterFixture, EveryInstanceGetsAPattern) {
  buildDesign({{0, 0}, {1200, 0}, {2400, 0}});
  const std::vector<int> chosen = analyze()->chosenPattern();
  ASSERT_EQ(chosen.size(), 3u);
  for (const int c : chosen) EXPECT_GE(c, 0);
}

TEST_F(ClusterFixture, AbuttingInstancesChooseCompatiblePatterns) {
  buildDesign({{0, 0}, {1200, 0}});
  const OracleResult res = analyze()->snapshot();

  // Verify the selection with an independent DRC check of the facing vias,
  // each placed at its own instance.
  const auto pinOrder = [&](int inst) {
    return res.classes[res.unique.classOf[inst]].pinOrder;
  };
  const auto right = res.chosenAp(*td_.design, 0, pinOrder(0).back());
  const auto left = res.chosenAp(*td_.design, 1, pinOrder(1).front());
  ASSERT_TRUE(right.has_value());
  ASSERT_TRUE(left.has_value());
  EXPECT_EQ(left->loc.x - left->ap->loc.x, 1200)
      << "u1's access point must be placed at u1";

  drc::DrcEngine engine(*td_.tech);
  EXPECT_TRUE(engine
                  .checkVia(*left->ap->primaryVia(*td_.tech), left->loc, 2,
                            engine.viaShapes(*right->ap->primaryVia(*td_.tech),
                                             right->loc, 1))
                  .empty())
      << "selected boundary vias conflict: " << right->loc << " vs "
      << left->loc;
}

TEST_F(ClusterFixture, SinglePatternModeStillSelects) {
  buildDesign({{0, 0}, {1200, 0}}, /*numPatterns=*/1);
  const std::vector<int> chosen = analyze()->chosenPattern();
  EXPECT_EQ(chosen[0], 0);
  EXPECT_EQ(chosen[1], 0);
}

TEST_F(ClusterFixture, PairChecksAreMemoizedAcrossRepeats) {
  // Ten identical abutting pairs: the (class, pattern, offset) cache should
  // keep pair checks far below pairs * patterns^2.
  std::vector<Point> origins;
  for (int i = 0; i < 20; ++i) origins.push_back({i * 1200, 0});
  buildDesign(origins);
  // 19 abutments, 3x3 pattern combos each; without memoization that is
  // > 170 pair evaluations (x2 directions) — with it, at most one per
  // distinct (pattern, pattern) combo.
  EXPECT_LE(analyze()->stats().pairChecks, 2u * 9u);
}

TEST_F(ClusterFixture, FillersAreTransparent) {
  buildDesign({{0, 0}, {1200, 0}});
  // Insert a pattern-less filler class after the two cells by giving the
  // design a third instance of a pinless master.
  db::Library fillLib;
  db::Master& filler = fillLib.addMaster("FILL");
  filler.width = 600;
  filler.height = 1200;
  db::Instance inst;
  inst.name = "fill0";
  inst.master = &filler;
  inst.origin = {2400, 0};
  td_.design->instances.push_back(inst);
  td_.design->buildInstanceIndex();
  const std::vector<int> chosen = analyze()->chosenPattern();
  EXPECT_GE(chosen[0], 0);
  EXPECT_GE(chosen[1], 0);
  EXPECT_EQ(chosen[2], -1);  // filler has no pattern
}

}  // namespace
}  // namespace pao::core
