// Experiment 3's preliminary 14nm study (Fig. 9): PAAF on a synthetic
// 14nm-like technology and an AES-scale design. The paper reports DRC-clean
// access for all 57K instance pins of a 20K-instance design in 9 seconds,
// with off-track access enabled automatically where needed.
#include <cstdio>

#include "bench_common.hpp"
#include "benchgen/testcase.hpp"
#include "pao/evaluate.hpp"

int main() {
  using namespace pao;
  const double scale = bench::benchScale(0.05);
  bench::BenchReport report("bench_exp3_14nm");
  const benchgen::Testcase tc = benchgen::generate(benchgen::aes14Spec(),
                                                   scale);

  std::printf("Experiment 3 (14nm study) — %s at scale %.3g\n",
              tc.spec.name.c_str(), scale);

  core::PinAccessOracle oracle(*tc.design, core::withBcaConfig());
  const core::OracleResult res = oracle.run();
  const core::DirtyApStats dirty = core::countDirtyAps(*tc.design, res);
  const core::FailedPinStats failed = core::countFailedPins(*tc.design, res);

  // Off-track share of chosen access points (Fig. 9's point: PAAF enables
  // off-track access automatically in 1D-constrained nodes).
  std::size_t chosen = 0;
  std::size_t offTrack = 0;
  for (int i = 0; i < static_cast<int>(tc.design->instances.size()); ++i) {
    const int cls = res.unique.classOf[i];
    if (cls < 0 || res.classes[cls].pinAps.empty()) continue;
    for (int pos = 0;
         pos < static_cast<int>(res.classes[cls].pinAps.size()); ++pos) {
      const auto ap = res.chosenAp(*tc.design, i, pos);
      if (!ap) continue;
      ++chosen;
      if (ap->ap->typeCost() > 0) ++offTrack;
    }
  }

  std::printf("  instances          : %zu\n", tc.design->instances.size());
  std::printf("  unique instances   : %zu\n", res.unique.classes.size());
  std::printf("  net-attached pins  : %zu\n", failed.totalPins);
  std::printf("  access points      : %zu (dirty: %zu)\n", dirty.totalAps,
              dirty.dirtyAps);
  std::printf("  failed pins        : %zu\n", failed.failedPins);
  std::printf("  chosen APs         : %zu (off-track: %zu = %.1f%%)\n",
              chosen, offTrack,
              chosen ? 100.0 * static_cast<double>(offTrack) /
                           static_cast<double>(chosen)
                     : 0.0);
  std::printf("  runtime            : %.2f s wall (step cpu: %.2f / %.2f / "
              "%.2f s)\n",
              res.wallSeconds, res.step1CpuSeconds, res.step2CpuSeconds,
              res.step3CpuSeconds);
  std::printf("\nPaper shape check: DRC-clean access for all pins; off-track "
              "access is engaged\nautomatically by the coordinate-type "
              "ladder.\n");
  report.bench()
      .set("benchmark", obs::Json(tc.spec.name))
      .set("instances", obs::Json(tc.design->instances.size()))
      .set("uniqueInstances", obs::Json(res.unique.classes.size()))
      .set("totalPins", obs::Json(failed.totalPins))
      .set("totalAps", obs::Json(dirty.totalAps))
      .set("dirtyAps", obs::Json(dirty.dirtyAps))
      .set("failedPins", obs::Json(failed.failedPins))
      .set("chosenAps", obs::Json(chosen))
      .set("offTrackAps", obs::Json(offTrack))
      .set("wallSeconds", obs::Json(res.wallSeconds));
#if PAO_OBS_ENABLED
  report.attachProfile(oracle.lastGraphProfile());
#endif
  return report.write() ? 0 : 1;
}
