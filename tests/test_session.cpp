// OracleSession tests: the incremental oracle must stay exactly equivalent
// to a fresh batch run after any mutation sequence (the refactor's
// load-bearing invariant), while recomputing only dirty clusters.
#include "pao/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "benchgen/testcase.hpp"
#include "pao/oracle.hpp"

namespace pao::core {
namespace {

benchgen::Testcase smallCase() {
  benchgen::TestcaseSpec spec = benchgen::ispd18Suite()[0];
  spec.numCells = 150;
  spec.numNets = 80;
  return benchgen::generate(spec, 1.0);
}

/// Deterministic LCG (same constants as pao_cli bench-incremental); the low
/// bits of an LCG are weak, so only the upper bits are used.
struct Lcg {
  std::uint64_t state;
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 17;
  }
};

/// One random row-snapped move or orientation flip through the session.
void randomMutation(OracleSession& session, db::Design& design, Lcg& rng) {
  const int inst = static_cast<int>(rng.next() % design.instances.size());
  if (rng.next() % 4 == 0) {
    const geom::Orient cur = design.instances[inst].orient;
    session.setOrient(inst, cur == geom::Orient::R0 ? geom::Orient::MX
                                                    : geom::Orient::R0);
    return;
  }
  const db::Row& row = design.rows[rng.next() % design.rows.size()];
  const std::uint64_t sites =
      row.numSites > 0 ? static_cast<std::uint64_t>(row.numSites) : 1;
  session.moveInstance(
      inst, geom::Point{row.origin.x + static_cast<geom::Coord>(
                                           rng.next() % sites) *
                                           row.siteWidth,
                        row.origin.y});
}

/// chosenAp agreement for every (instance, signal pin) — class-order
/// independent, unlike comparing the classes vectors directly.
bool sameAccess(const OracleResult& a, const OracleResult& b,
                const db::Design& design) {
  if (a.chosenPattern != b.chosenPattern) return false;
  for (int i = 0; i < static_cast<int>(design.instances.size()); ++i) {
    const int cls = a.unique.classOf[i];
    if (cls < 0 || a.classes[cls].pinAps.empty()) continue;
    for (int p = 0; p < static_cast<int>(a.classes[cls].pinAps.size());
         ++p) {
      const auto apA = a.chosenAp(design, i, p);
      const auto apB = b.chosenAp(design, i, p);
      if (apA.has_value() != apB.has_value()) return false;
      if (apA && apA->loc != apB->loc) return false;
    }
  }
  return true;
}

void expectMatchesBatch(const OracleSession& session, db::Design& design,
                        const OracleConfig& cfg) {
  PinAccessOracle fresh(design, cfg);
  const OracleResult batch = fresh.run();
  EXPECT_EQ(batch.chosenPattern, session.chosenPattern());
  EXPECT_TRUE(sameAccess(batch, session.snapshot(), design));
}

class SessionEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SessionEquivalence, RandomMutationsMatchFreshBatchRun) {
  benchgen::Testcase tc = smallCase();
  AccessCache cache;
  OracleConfig cfg = withBcaConfig();
  cfg.numThreads = GetParam();
  cfg.cache = &cache;

  OracleSession session(*tc.design, cfg);
  expectMatchesBatch(session, *tc.design, cfg);

  Lcg rng{7 + static_cast<std::uint64_t>(GetParam())};
  for (int m = 0; m < 5; ++m) {
    randomMutation(session, *tc.design, rng);
    expectMatchesBatch(session, *tc.design, cfg);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, SessionEquivalence,
                         ::testing::Values(1, 4, 0));

TEST(OracleSession, SingleMoveRecomputesOnlyDirtyClusters) {
  benchgen::Testcase tc = smallCase();
  AccessCache cache;
  OracleConfig cfg = withBcaConfig();
  cfg.cache = &cache;
  OracleSession session(*tc.design, cfg);
  const std::size_t fullDp = session.stats().clusterDpRuns;

  const db::Row& row = tc.design->rows.front();
  session.moveInstance(3, geom::Point{row.origin.x + 7 * row.siteWidth,
                                      row.origin.y});

  EXPECT_GE(session.stats().lastDirtyClusters, 1u);
  EXPECT_LT(session.stats().lastDirtyClusters,
            session.stats().lastClusterCount);
  // The move re-ran far fewer cluster DPs than the initial full build.
  EXPECT_LT(session.stats().clusterDpRuns - fullDp, fullDp);
  expectMatchesBatch(session, *tc.design, cfg);
}

TEST(OracleSession, AddAndRemoveInstanceMatchBatch) {
  benchgen::Testcase tc = smallCase();
  AccessCache cache;
  OracleConfig cfg = withBcaConfig();
  cfg.cache = &cache;
  OracleSession session(*tc.design, cfg);

  // Clone an existing instance into a fresh row slot.
  db::Instance clone = tc.design->instances[0];
  clone.name = "session_test_clone";
  const db::Row& row = tc.design->rows.back();
  clone.origin = geom::Point{row.origin.x + 3 * row.siteWidth, row.origin.y};
  clone.orient = row.orient;
  const int idx = session.addInstance(clone);
  EXPECT_EQ(idx, static_cast<int>(tc.design->instances.size()) - 1);
  expectMatchesBatch(session, *tc.design, cfg);

  session.removeInstance(idx);
  expectMatchesBatch(session, *tc.design, cfg);

  // Removing a long-standing instance renumbers everything above it.
  session.removeInstance(4);
  expectMatchesBatch(session, *tc.design, cfg);
}

TEST(OracleSession, ClassRevivalAfterLastMemberLeaves) {
  benchgen::Testcase tc = smallCase();
  OracleConfig cfg = withBcaConfig();
  OracleSession session(*tc.design, cfg);

  // Drive instance 2 through a one-of-a-kind signature (unique orientation
  // at its row) and back: the emptied class must be revived by signature,
  // and the final state must match a batch run.
  const geom::Orient orig = tc.design->instances[2].orient;
  session.setOrient(2, orig == geom::Orient::R0 ? geom::Orient::MX
                                                : geom::Orient::R0);
  expectMatchesBatch(session, *tc.design, cfg);
  session.setOrient(2, orig);
  expectMatchesBatch(session, *tc.design, cfg);
}

TEST(OracleSession, ReadOnlySessionRejectsMutation) {
  const benchgen::Testcase tc = smallCase();
  const db::Design& design = *tc.design;
  OracleSession session(design, withBcaConfig());
  EXPECT_THROW(session.moveInstance(0, geom::Point{0, 0}), std::logic_error);
  EXPECT_THROW(session.removeInstance(0), std::logic_error);
}

TEST(OracleSession, OutOfBandDesignMutationDetected) {
  benchgen::Testcase tc = smallCase();
  OracleSession session(*tc.design, withBcaConfig());
  // An edit through the Design mutation API behind the session's back bumps
  // the revision counter, which the next session mutation must reject.
  tc.design->moveInstance(0, tc.design->instances[0].origin);
  EXPECT_THROW(session.moveInstance(1, tc.design->instances[1].origin),
               std::logic_error);
}

TEST(OracleSession, SnapshotEqualsBatchByteForByte) {
  const benchgen::Testcase tc = smallCase();
  const db::Design& design = *tc.design;
  OracleConfig cfg = withBcaConfig();
  const OracleSession session(design, cfg);
  const OracleResult snap = session.snapshot();
  PinAccessOracle oracle(design, cfg);
  const OracleResult batch = oracle.run();
  ASSERT_EQ(snap.classes.size(), batch.classes.size());
  EXPECT_EQ(snap.chosenPattern, batch.chosenPattern);
  for (std::size_t c = 0; c < snap.classes.size(); ++c) {
    ASSERT_EQ(snap.classes[c].pinAps.size(), batch.classes[c].pinAps.size());
    for (std::size_t p = 0; p < snap.classes[c].pinAps.size(); ++p) {
      ASSERT_EQ(snap.classes[c].pinAps[p].size(),
                batch.classes[c].pinAps[p].size());
      for (std::size_t a = 0; a < snap.classes[c].pinAps[p].size(); ++a) {
        EXPECT_EQ(snap.classes[c].pinAps[p][a].loc,
                  batch.classes[c].pinAps[p][a].loc);
      }
    }
  }
}

TEST(OracleSession, LegacyModeRunsTheSameJobGraph) {
  // Legacy mode has no Step-3 DP but builds through the same job graph as
  // the full flow, minus the cluster nodes: one Step-1 and one Step-2 node
  // per class, then the first-AP selection, identical at any thread count.
  const benchgen::Testcase tc = smallCase();
  const db::Design& design = *tc.design;
  std::vector<int> serialChosen;
  for (const int threads : {1, 4, 0}) {
    OracleConfig cfg = legacyConfig();
    cfg.numThreads = threads;
    const OracleSession session(design, cfg);
    const std::size_t numClasses = session.unique().classes.size();
    ASSERT_GT(numClasses, 0u);
    EXPECT_EQ(session.stats().graphJobs, 2 * numClasses) << threads;
    EXPECT_EQ(session.stats().lastClusterCount, 0u) << threads;
    EXPECT_EQ(session.stats().clusterDpRuns, 0u) << threads;
#if PAO_OBS_ENABLED
    EXPECT_EQ(session.lastGraphProfile().nodes.size(), 2 * numClasses)
        << threads;
#endif
    if (threads == 1) {
      serialChosen = session.chosenPattern();
      EXPECT_NE(std::count(serialChosen.begin(), serialChosen.end(), 0), 0);
    } else {
      EXPECT_EQ(session.chosenPattern(), serialChosen) << threads;
    }
  }
}

}  // namespace
}  // namespace pao::core
