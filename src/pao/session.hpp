// OracleSession — the incremental, long-lived form of the pin access
// oracle. Where PinAccessOracle::run() answers one batch query, a session
// holds the design plus the full Steps 1-3 state (unique-instance classes,
// per-class access, cluster structure, chosen patterns) and keeps it
// consistent under placement mutations, recomputing only what a mutation
// invalidates:
//   * Steps 1-2 are keyed by unique-instance signature: a mutation that
//     lands an instance in an already-seen class costs a lookup; a new
//     signature costs one per-class analysis (added to the AccessCache when
//     one is configured, so the work survives the session too).
//   * Unique-instance class membership is maintained incrementally
//     (db::UniqueInstanceIndex) — class indices are stable, so per-class
//     results and the Step-3 pair memo stay valid for the session lifetime.
//   * Step 3 re-runs the cluster DP only for dirty clusters: clusters whose
//     member list changed, clusters containing a touched instance, and —
//     transitively, in cluster order — clusters sharing a (multi-height)
//     instance with an earlier dirty cluster, whose pinned input may have
//     changed. Everything else keeps its chosen pattern.
//
// Invariant (enforced by tests): after any mutation sequence, chosenPattern()
// equals a fresh PinAccessOracle::run() on the mutated design, for any
// thread count.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "db/unique_inst.hpp"
#include "obs/enabled.hpp"
#include "pao/access_cache.hpp"
#include "pao/cluster_select.hpp"
#include "pao/oracle.hpp"

#if PAO_OBS_ENABLED
#include "obs/profile.hpp"
#endif

namespace pao::core {

class OracleSession {
 public:
  /// Full analysis of `design`, then ready for mutations. The session owns
  /// no design data; `design` must outlive it and must only be mutated
  /// through the session (out-of-band Design mutation-API edits are detected
  /// via Design::revision() and rejected; direct field writes are not).
  explicit OracleSession(db::Design& design, OracleConfig cfg = {});
  /// Read-only session over a const design: same full analysis, but the
  /// mutation API throws std::logic_error. This is what the batch
  /// PinAccessOracle wraps.
  explicit OracleSession(const db::Design& design, OracleConfig cfg = {});

  // --- mutation API --------------------------------------------------------
  /// Each call applies the design edit, re-signatures the instance, and
  /// brings chosenPattern() back in sync by recomputing dirty clusters only.
  void moveInstance(int instIdx, geom::Point newOrigin);
  void setOrient(int instIdx, geom::Orient orient);
  /// Appends `inst` to the design; returns its instance index.
  int addInstance(db::Instance inst);
  /// Erases instance `instIdx`; indices above it shift down by one (the
  /// session renumbers all internal state accordingly).
  void removeInstance(int instIdx);

  // --- queries -------------------------------------------------------------
  const db::Design& design() const { return *design_; }
  const db::UniqueInstances& unique() const { return index_.classes(); }
  /// Steps 1-2 access of class `cls`, origin-relative (add a member
  /// instance's origin to place an access point). The reference is
  /// invalidated by mutations that create a new class.
  const ClassAccess& classAccess(int cls) const { return classes_[cls]; }
  /// Chosen pattern per instance (-1 when the class has none).
  const std::vector<int>& chosenPattern() const { return chosen_; }
  /// The access point chosen for (instance, signal-pin position), placed at
  /// the instance's current location.
  std::optional<OracleResult::ChosenAp> chosenAp(int instIdx,
                                                 int sigPinPos) const;
  /// Batch-equivalent result: classes translated to representative design
  /// coordinates, exactly what PinAccessOracle::run() returns. Timings
  /// describe the initial full analysis, not later mutations.
  OracleResult snapshot() const;

  /// Graceful-degradation events accumulated so far (cfg.keepGoing class
  /// fallbacks, Step-3 budget expiries). Unsorted accumulation order;
  /// snapshot() returns them canonically sorted.
  const std::vector<DegradedEvent>& degraded() const { return degraded_; }

  struct Stats {
    std::size_t mutations = 0;
    /// Cumulative Step-3 cluster-DP invocations (initial build included).
    std::size_t clusterDpRuns = 0;
    /// Dirty clusters recomputed by the last mutation, and the total
    /// cluster count after the last build or mutation — the incrementality
    /// headline (a full build sets the count with zero dirty clusters).
    std::size_t lastDirtyClusters = 0;
    std::size_t lastClusterCount = 0;
    /// Steps 1-2 per-class analyses actually computed (signature misses).
    std::size_t classBuilds = 0;
    /// Per-class analyses answered from the configured AccessCache.
    std::size_t cacheHits = 0;
    /// Step-3 boundary pair checks, counted deterministically (see
    /// ClusterSelector::numPairChecks). Schedule-invariant; reported.
    std::size_t pairChecks = 0;
    /// Job-graph shape of the last full build plus mutation re-runs:
    /// total nodes, Step-3 DP nodes that started while Steps 1-2 work was
    /// still pending (the pipeline-overlap headline), and cross-worker
    /// steals. graphJobs/overlapJobs are deterministic for a fixed thread
    /// count; graphSteals is schedule-dependent (bench-only — neither is
    /// part of the canonical report output).
    std::size_t graphJobs = 0;
    std::size_t overlapJobs = 0;
    std::size_t graphSteals = 0;
  };
  const Stats& stats() const { return stats_; }

#if PAO_OBS_ENABLED
  /// Profile of the most recent pipeline job graph (initial build or
  /// mutation re-run). The initial build always runs one graph — in legacy
  /// mode it holds only the Steps 1-2 nodes. Feed to obs::analyzeProfile /
  /// obs::profileSectionJson for the run report.
  const obs::GraphProfile& lastGraphProfile() const { return graphProfile_; }
#endif

 private:
  /// Per-class build state threaded between the Step-1 and Step-2 job-graph
  /// nodes of one class (defined in session.cpp).
  struct ClassBuildState;

  void buildAll();
  /// Computes (or cache-loads) class `c`'s origin-relative Steps 1-2 access
  /// into classes_[c]. Thread-safe across distinct classes. The fused form
  /// of classStep1 + classStep2, used on the mutation path.
  void computeClassAccess(std::size_t c);
  /// Step 1 of class `c`: cache lookup, then access point generation (or the
  /// legacy generator in legacyMode). One job-graph node per class.
  void classStep1(std::size_t c, ClassBuildState& st);
  /// Step 2 of class `c`: pattern DP, origin normalization, cache store and
  /// stats commit. Depends on classStep1(c) in the pipeline graph.
  void classStep2(std::size_t c, ClassBuildState& st);
  /// keepGoing fallback shared by both steps: legacy access for the class,
  /// or empty access (class_failed) when even that throws.
  void fallbackToLegacy(std::size_t c, ClassBuildState& st,
                        const std::exception& e);
  /// Grows per-class storage after the index created classes, then makes
  /// sure `cls` is analyzed.
  void ensureClassAccess(int cls);
  void onGeometryChanged(int instIdx);
  /// Rebuilds clusters, diffs against the previous structure, and re-runs
  /// the DP for dirty clusters only (`touched` = instances whose geometry
  /// or class changed in this mutation).
  void recomputeAfterMutation(const std::vector<int>& touched);
  /// The no-Step-3 selection of legacy mode: every instance of an analyzed
  /// class takes its first (only) pattern.
  void trivialSelection();
  /// Appends a "step3_budget" DegradedEvent when the last selection pass
  /// expired its budget.
  void recordBudgetExpiry();
  void requireMutable() const;

  const db::Design* design_;
  db::Design* mutableDesign_;  ///< null in read-only sessions
  OracleConfig cfg_;
  AccessCache* cache_;  ///< cfg_.cache; may be null
  std::mutex cacheMu_;
  db::UniqueInstanceIndex index_;
  /// Origin-relative per-class access, parallel to unique().classes.
  std::vector<ClassAccess> classes_;
  std::vector<char> classReady_;
  std::vector<int> chosen_;
  /// Cluster structure the current chosen_ was computed against.
  std::vector<std::vector<int>> clusters_;
  std::unique_ptr<ClusterSelector> selector_;
  std::uint64_t designRevision_ = 0;
  Stats stats_;
  std::vector<DegradedEvent> degraded_;  ///< guarded by cacheMu_ during 1-2
  double step1CpuSeconds_ = 0;
  double step2CpuSeconds_ = 0;
  double step3CpuSeconds_ = 0;
  double wallSeconds_ = 0;
  /// Pipeline-graph bookkeeping for the initial build: Steps 1-2 nodes not
  /// yet finished, and Step-3 nodes that started while it was nonzero.
  std::atomic<std::size_t> pendingSteps12_{0};
  std::atomic<std::size_t> overlapJobs_{0};
#if PAO_OBS_ENABLED
  obs::GraphProfile graphProfile_;
#endif
};

}  // namespace pao::core
