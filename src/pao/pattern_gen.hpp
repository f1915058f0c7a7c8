// Step 2 — unique-instance access pattern generation (paper Sec. III-B,
// Algorithms 2 and 3).
//
// Pins are ordered by (x̄ + α·ȳ) of their access points; a DAG is built with
// one vertex group per ordered pin (complete bipartite edges between
// neighboring groups) and shortest paths are extracted by dynamic
// programming. Edge costs (Algorithm 3) are boundary-conflict-aware —
// boundary-pin access points already used by earlier patterns are penalized
// so successive patterns diversify the cell-edge choices — and history-aware:
// the (prev-1, curr) pair is also DRC-checked, catching conflicts that skip
// one pin. Each produced pattern is post-validated by dropping all its
// primary vias simultaneously and checking for unseen DRCs.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "pao/access_point.hpp"
#include "pao/inst_context.hpp"

namespace pao::core {

struct PatternGenConfig {
  /// Pin-ordering weight: sort key is xavg + alpha * yavg (paper uses 0.3).
  double alpha = 0.3;
  /// Patterns to generate per unique instance (3 with BCA, 1 without).
  int numPatterns = 3;
  /// Ablation switches (both on in the paper's flow).
  bool boundaryAware = true;
  bool historyAware = true;
};

/// Algorithm 3 cost of reusing a boundary-pin access point an earlier
/// pattern already took (BCA); the DRC cost is kDrcCost.
constexpr long long kBoundaryPenaltyCost = 4096;

class PatternGenerator {
 public:
  /// `pinAps[i]` holds the Step-1 access points of the i-th signal pin
  /// (parallel to ctx.signalPins()).
  PatternGenerator(const InstContext& ctx,
                   const std::vector<std::vector<AccessPoint>>& pinAps,
                   PatternGenConfig cfg = {});

  /// Positions into `pinAps`, sorted by the pin-ordering key. Pins with no
  /// access points are excluded (they can never be part of a pattern).
  const std::vector<int>& pinOrder() const { return order_; }

  /// Runs the iterative DP and returns up to numPatterns distinct validated
  /// patterns, best first. Pattern::apIdx is indexed by signal-pin position
  /// (same indexing as `pinAps`), -1 for pins without access points.
  std::vector<AccessPattern> run();

  /// Number of (prev,curr) via-pair DRC evaluations performed (stat).
  std::size_t numPairChecks() const { return numPairChecks_; }

 private:
  /// Algorithm 3. `prevPrev` is the deterministic predecessor of `prev` on
  /// the current best path (-1 when none).
  long long edgeCost(int prevPin, int prevAp, int curPin, int curAp,
                     int prevPrevPin, int prevPrevAp);
  /// Memoized "are these two access points' primary vias DRC-compatible".
  bool pairClean(int pinA, int apA, int pinB, int apB);
  long long apCost(int pin, int ap) const;
  bool isBoundaryPin(int orderedPos) const;

  const InstContext* ctx_;
  const std::vector<std::vector<AccessPoint>>* pinAps_;
  PatternGenConfig cfg_;
  std::vector<int> order_;
  /// Boundary-pin APs consumed by already-emitted patterns: (pinPos, apIdx).
  std::vector<std::pair<int, int>> usedBoundaryAps_;
  std::map<std::uint64_t, bool> pairCleanCache_;
  std::size_t numPairChecks_ = 0;
  /// Via-check scratch of the class's DP; the work is published at the end
  /// of run().
  drc::ViaScratch scratch_;
  drc::DrcWork work_;
};

}  // namespace pao::core
