// End-to-end oracle tests on generated testcases: the Experiment 1/2 claims
// at unit-test scale.
#include "pao/oracle.hpp"

#include <gtest/gtest.h>

#include <string>

#include "benchgen/testcase.hpp"
#include "pao/evaluate.hpp"

namespace pao::core {
namespace {

class OracleFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tc_ = new benchgen::Testcase(
        benchgen::generate(benchgen::ispd18Suite()[0], /*scale=*/0.02));
  }
  static void TearDownTestSuite() {
    delete tc_;
    tc_ = nullptr;
  }
  static benchgen::Testcase* tc_;
};

benchgen::Testcase* OracleFixture::tc_ = nullptr;

TEST_F(OracleFixture, PaafGeneratesOnlyCleanAps) {
  // Experiment 1, PAAF column: every generated access point is DRC-clean by
  // construction.
  PinAccessOracle oracle(*tc_->design, withBcaConfig());
  const OracleResult res = oracle.run();
  const DirtyApStats stats = countDirtyAps(*tc_->design, res);
  EXPECT_GT(stats.totalAps, 0u);
  EXPECT_EQ(stats.dirtyAps, 0u);
}

TEST_F(OracleFixture, LegacyGeneratesDirtyAps) {
  // Experiment 1, TrRte column: the baseline emits some dirty points and
  // fewer points overall.
  PinAccessOracle legacy(*tc_->design, legacyConfig());
  const OracleResult legacyRes = legacy.run();
  const DirtyApStats legacyStats = countDirtyAps(*tc_->design, legacyRes);
  EXPECT_GT(legacyStats.dirtyAps, 0u);

  PinAccessOracle paaf(*tc_->design, withBcaConfig());
  const OracleResult paafRes = paaf.run();
  EXPECT_GT(paafRes.totalAps(), legacyRes.totalAps());
}

TEST_F(OracleFixture, BcaReachesZeroFailedPins) {
  // Experiment 2, "w/ BCA" column: all net-attached pins get a DRC-clean
  // access point, inter-cell compatibility included.
  PinAccessOracle oracle(*tc_->design, withBcaConfig());
  const OracleResult res = oracle.run();
  const FailedPinStats stats = countFailedPins(*tc_->design, res);
  EXPECT_GT(stats.totalPins, 0u);
  EXPECT_EQ(stats.failedPins, 0u);
}

TEST_F(OracleFixture, FailedPinOrdering) {
  // legacy >= w/o BCA >= w/ BCA, mirroring Table III's column ordering.
  PinAccessOracle legacy(*tc_->design, legacyConfig());
  const FailedPinStats legacyStats =
      countFailedPins(*tc_->design, legacy.run(), 0,
                      FailedPinCriterion::kAnyAp);

  PinAccessOracle noBca(*tc_->design, withoutBcaConfig());
  const FailedPinStats noBcaStats = countFailedPins(*tc_->design, noBca.run());

  PinAccessOracle bca(*tc_->design, withBcaConfig());
  const FailedPinStats bcaStats = countFailedPins(*tc_->design, bca.run());

  EXPECT_GE(legacyStats.failedPins, noBcaStats.failedPins);
  EXPECT_GE(noBcaStats.failedPins, bcaStats.failedPins);
  EXPECT_GT(legacyStats.failedPins, 0u);
}

TEST_F(OracleFixture, UniqueInstanceSharing) {
  // Unique-instance analysis must cover every instance exactly once.
  PinAccessOracle oracle(*tc_->design, withBcaConfig());
  const OracleResult res = oracle.run();
  EXPECT_EQ(res.unique.classOf.size(), tc_->design->instances.size());
  std::size_t members = 0;
  for (const db::UniqueInstance& ui : res.unique.classes) {
    members += ui.members.size();
  }
  EXPECT_EQ(members, tc_->design->instances.size());
  // Far fewer classes than instances (that is the point of the concept).
  EXPECT_LT(res.unique.classes.size(), tc_->design->instances.size());
}

TEST_F(OracleFixture, ChosenApTranslatesWithInstance) {
  PinAccessOracle oracle(*tc_->design, withBcaConfig());
  const OracleResult res = oracle.run();
  const db::Design& d = *tc_->design;
  for (std::size_t c = 0; c < res.unique.classes.size(); ++c) {
    const db::UniqueInstance& ui = res.unique.classes[c];
    if (res.classes[c].patterns.empty() || ui.members.size() < 2) continue;
    // The chosen AP of any member must equal the representative's AP
    // translated by the origin delta.
    const int rep = ui.representative;
    const int other = ui.members.back();
    if (res.chosenPattern[rep] != res.chosenPattern[other]) continue;
    for (int pos = 0;
         pos < static_cast<int>(res.classes[c].pinAps.size()); ++pos) {
      const auto a = res.chosenAp(d, rep, pos);
      const auto b = res.chosenAp(d, other, pos);
      ASSERT_EQ(a.has_value(), b.has_value());
      if (!a) continue;
      const geom::Point delta =
          d.instances[other].origin - d.instances[rep].origin;
      EXPECT_EQ(b->loc, a->loc + delta);
    }
    break;
  }
}

TEST_F(OracleFixture, TimingsAreRecorded) {
  PinAccessOracle oracle(*tc_->design, withBcaConfig());
  const OracleResult res = oracle.run();
  EXPECT_GT(res.step1CpuSeconds, 0.0);
  EXPECT_GT(res.step2CpuSeconds, 0.0);
  EXPECT_GT(res.step3CpuSeconds, 0.0);
  // A serial run does all three steps on the calling thread inside the
  // wall interval, so their thread CPU cannot exceed it (1 ms of slack for
  // the two clocks' granularity).
  EXPECT_GT(res.wallSeconds, 0.0);
  EXPECT_LE(res.step1CpuSeconds + res.step2CpuSeconds + res.step3CpuSeconds,
            res.wallSeconds + 1e-3);
}

TEST_F(OracleFixture, ThreadCountDoesNotChangeResult) {
  // The PR-1 determinism contract: the full flow (Steps 1-3) must produce an
  // identical OracleResult for any thread count. Compares every semantic
  // field; timings are excluded by construction.
  const auto runWith = [&](int threads) {
    OracleConfig cfg = withBcaConfig();
    cfg.numThreads = threads;
    return PinAccessOracle(*tc_->design, cfg).run();
  };
  const OracleResult base = runWith(1);
  for (int threads : {4, 0}) {
    const OracleResult res = runWith(threads);
    SCOPED_TRACE("numThreads=" + std::to_string(threads));
    EXPECT_EQ(res.unique.classOf, base.unique.classOf);
    EXPECT_EQ(res.chosenPattern, base.chosenPattern);
    ASSERT_EQ(res.classes.size(), base.classes.size());
    for (std::size_t c = 0; c < base.classes.size(); ++c) {
      const ClassAccess& a = res.classes[c];
      const ClassAccess& b = base.classes[c];
      SCOPED_TRACE("class " + std::to_string(c));
      EXPECT_EQ(a.pinOrder, b.pinOrder);
      ASSERT_EQ(a.patterns.size(), b.patterns.size());
      for (std::size_t p = 0; p < b.patterns.size(); ++p) {
        EXPECT_EQ(a.patterns[p].apIdx, b.patterns[p].apIdx);
        EXPECT_EQ(a.patterns[p].cost, b.patterns[p].cost);
        EXPECT_EQ(a.patterns[p].validated, b.patterns[p].validated);
      }
      ASSERT_EQ(a.pinAps.size(), b.pinAps.size());
      for (std::size_t pin = 0; pin < b.pinAps.size(); ++pin) {
        ASSERT_EQ(a.pinAps[pin].size(), b.pinAps[pin].size());
        for (std::size_t i = 0; i < b.pinAps[pin].size(); ++i) {
          const AccessPoint& x = a.pinAps[pin][i];
          const AccessPoint& y = b.pinAps[pin][i];
          EXPECT_EQ(x.loc, y.loc);
          EXPECT_EQ(x.layer, y.layer);
          EXPECT_EQ(x.prefType, y.prefType);
          EXPECT_EQ(x.nonPrefType, y.nonPrefType);
          EXPECT_EQ(x.dirs, y.dirs);
          // Via identity (indices into the shared Tech) and order.
          EXPECT_EQ(x.viaIdx, y.viaIdx);
        }
      }
    }
  }
}

TEST(OracleConfigs, PresetsMatchPaperSetups) {
  EXPECT_EQ(withoutBcaConfig().patternGen.numPatterns, 1);
  EXPECT_FALSE(withoutBcaConfig().patternGen.boundaryAware);
  EXPECT_EQ(withBcaConfig().patternGen.numPatterns, 3);
  EXPECT_TRUE(withBcaConfig().patternGen.boundaryAware);
  EXPECT_TRUE(legacyConfig().legacyMode);
}

}  // namespace
}  // namespace pao::core
