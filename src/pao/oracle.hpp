// PinAccessOracle — the facade that runs the full three-step pin access
// analysis flow of the paper on a design:
//   Step 1  pin-based access point generation per unique instance,
//   Step 2  DP-based access pattern generation per unique instance,
//   Step 3  DP-based access pattern selection per instance cluster.
// A legacy mode substitutes the TritonRoute-v0.0.6.0-style generator and a
// trivial first-point "pattern", reproducing the paper's TrRte baseline.
#pragma once

#include <optional>
#include <vector>

#include "db/unique_inst.hpp"
#include "obs/enabled.hpp"
#include "pao/access_cache.hpp"
#include "pao/ap_gen.hpp"
#include "pao/cluster_select.hpp"
#include "pao/legacy_ap.hpp"
#include "pao/pattern_gen.hpp"

#if PAO_OBS_ENABLED
#include "obs/profile.hpp"
#endif

namespace pao::core {

struct OracleConfig {
  ApGenConfig apGen;
  PatternGenConfig patternGen;
  ClusterSelectConfig clusterSelect;
  /// TrRte baseline: legacy AP generation, first-AP patterns, no Step 3 DP.
  bool legacyMode = false;
  /// Run the Step-3 cluster DP (always true in the paper's full flow; with a
  /// single pattern per class the DP is trivially the identity).
  bool runClusterSelection = true;
  /// Worker threads for the whole flow (the paper's "support of
  /// multi-threading" future-work item): Steps 1-2 over unique instances and
  /// the Step-3 cluster DP all run as one job graph. Results are identical
  /// for any thread count. 1 = serial; 0 = hardware concurrency.
  int numThreads = 1;
  /// Optional cross-run cache of intra-cell results keyed by signature —
  /// reusable across placement changes. Not owned; may be nullptr.
  AccessCache* cache = nullptr;
  /// Graceful degradation (pao_cli --keep-going): when a unique class's
  /// Steps 1-2 analysis throws, fall back to the legacy generator for that
  /// class (then to empty access if the fallback throws too) and record a
  /// DegradedEvent instead of aborting the whole run. Off (strict) by
  /// default: the first per-class exception propagates.
  bool keepGoing = false;
  /// Wall-clock budget for the Step-3 cluster DP in seconds (0 =
  /// unlimited). On expiry the remaining clusters commit each instance's
  /// cheapest standalone pattern (see ClusterSelectConfig::budgetSeconds)
  /// and a "step3_budget" DegradedEvent is recorded.
  double step3BudgetSeconds = 0;
};

/// One graceful-degradation event of a keep-going run. Kinds:
///   "class_fallback" — Steps 1-2 threw for a unique class; the class took
///                      the legacy-generator fallback (detail = what()).
///   "class_failed"   — the legacy fallback threw as well; the class has no
///                      access (its instances report failed pins).
///   "step3_budget"   — the Step-3 budget expired; late clusters committed
///                      best-so-far patterns instead of the DP.
struct DegradedEvent {
  std::string kind;
  std::string detail;
  /// Unique-class index for class-scoped kinds, -1 otherwise.
  int cls = -1;
};

/// Convenience preset: PAAF without boundary-conflict awareness (Table III
/// "w/o BCA" column) — a single pattern per unique instance.
OracleConfig withoutBcaConfig();
/// PAAF with BCA (Table III "w/ BCA") — up to three diversified patterns.
OracleConfig withBcaConfig();
/// TrRte v0.0.6.0-style baseline.
OracleConfig legacyConfig();

struct OracleResult {
  db::UniqueInstances unique;
  /// Per unique-instance class, parallel to unique.classes. Classes of
  /// masters without signal pins have empty pinAps/patterns.
  std::vector<ClassAccess> classes;
  /// Chosen pattern per instance (-1 when the class has none).
  std::vector<int> chosenPattern;
  /// Graceful-degradation events of a keepGoing run, canonically sorted
  /// (by cls, then kind, then detail). Empty means the result is exactly
  /// what a fault-free strict run would have produced.
  std::vector<DegradedEvent> degraded;

  /// Step timings. Two clocks are reported per step because they answer
  /// different questions and diverge under numThreads > 1:
  ///
  ///   * step1Seconds/step2Seconds — summed per-class steady_clock time as
  ///     measured on the worker that analyzed each class. This is
  ///     "aggregate work" (comparable across thread counts, exceeds elapsed
  ///     time when parallel) but is NOT strictly CPU time: a preempted
  ///     worker inflates it.
  ///   * step1CpuSeconds/step2CpuSeconds/step3CpuSeconds — the same work
  ///     measured on the per-thread CPU clock (CLOCK_THREAD_CPUTIME_ID),
  ///     immune to preemption. Use these for "where did the cycles go".
  ///   * step3Seconds, steps12WallSeconds and wallSeconds — end-to-end wall
  ///     (elapsed) time of Step 3, of the Steps 1-2 parallel region, and of
  ///     the whole flow. Use these for "how long did I wait".
  ///
  /// The pao-report/1 "oracle" section carries all of them.
  double step1Seconds = 0;
  double step2Seconds = 0;
  double step3Seconds = 0;
  double wallSeconds = 0;
  double step1CpuSeconds = 0;
  double step2CpuSeconds = 0;
  double step3CpuSeconds = 0;
  /// Wall time of the Steps 1-2 parallel region alone.
  double steps12WallSeconds = 0;
  double totalSeconds() const {
    return step1Seconds + step2Seconds + step3Seconds;
  }

  /// Total access points generated across all unique-instance pins
  /// (Table II "Total #APs").
  std::size_t totalAps() const;
  /// The access point chosen for (instance, signal-pin position), translated
  /// to the instance's placement; nullopt when the pin has no chosen access.
  struct ChosenAp {
    const AccessPoint* ap;
    geom::Point loc;
  };
  std::optional<ChosenAp> chosenAp(const db::Design& design, int instIdx,
                                   int sigPinPos) const;
};

/// The one-shot batch facade. Internally a thin wrapper over a read-only
/// pao::core::OracleSession — use a session directly when the design will
/// mutate and you want incremental recomputation (see pao/session.hpp).
class PinAccessOracle {
 public:
  explicit PinAccessOracle(const db::Design& design, OracleConfig cfg = {});

  /// Runs the configured flow end to end.
  OracleResult run();

#if PAO_OBS_ENABLED
  /// Profile of the pipeline job graph of the last run() (empty before the
  /// first run, or when the legacy parallelFor path ran). The benches feed
  /// this to BenchReport::attachProfile.
  const obs::GraphProfile& lastGraphProfile() const { return graphProfile_; }
#endif

 private:
  const db::Design* design_;
  OracleConfig cfg_;
#if PAO_OBS_ENABLED
  obs::GraphProfile graphProfile_;
#endif
};

}  // namespace pao::core
