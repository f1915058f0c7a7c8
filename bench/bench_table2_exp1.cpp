// Experiment 1 (Table II) reproduction: quality of access points for all
// unique instance pins, without intra-/inter-cell compatibility — original
// TritonRoute-style baseline (TrRte) vs our PAAF. Reports total #APs,
// #dirty APs (points whose primary via is NOT DRC-clean against the
// intra-cell context) and the Step-1 runtime (thread CPU seconds summed
// over unique instances).
#include <cstdio>

#include "bench_common.hpp"
#include "benchgen/testcase.hpp"
#include "pao/evaluate.hpp"

int main() {
  using namespace pao;
  const double scale = bench::benchScale();
  bench::BenchReport report("bench_table2_exp1");
  obs::Json rows = obs::Json::array();

  std::printf("Table II — Experiment 1: unique-instance access point quality "
              "(scale %.3g; t = Step-1 CPU s)\n",
              scale);
  std::printf("%-14s %8s | %10s %10s | %9s %9s | %9s %9s\n", "Benchmark",
              "#Unique", "APs:TrRte", "APs:PAAF", "dirty:TrR", "dirty:PAA",
              "t(s):TrR", "t(s):PAA");
  bench::printRule(100);

  for (std::size_t i = 0; i < benchgen::ispd18Suite().size(); ++i) {
    if (!bench::testcaseSelected(static_cast<int>(i))) continue;
    const benchgen::TestcaseSpec spec = benchgen::ispd18Suite()[i];
    const benchgen::Testcase tc = benchgen::generate(spec, scale);

    core::PinAccessOracle legacy(*tc.design, core::legacyConfig());
    const core::OracleResult legacyRes = legacy.run();
    const core::DirtyApStats legacyDirty =
        core::countDirtyAps(*tc.design, legacyRes);

    // A single pattern keeps Steps 2-3 cheap; the reported runtime is the
    // Step-1 CPU clock, which isolates access point generation either way.
    core::OracleConfig paafCfg = core::withoutBcaConfig();
    core::PinAccessOracle paaf(*tc.design, paafCfg);
    const core::OracleResult paafRes = paaf.run();
    const core::DirtyApStats paafDirty =
        core::countDirtyAps(*tc.design, paafRes);

    std::printf("%-14s %8zu | %10zu %10zu | %9zu %9zu | %9.2f %9.2f\n",
                spec.name.c_str(), paafRes.unique.classes.size(),
                legacyDirty.totalAps, paafDirty.totalAps,
                legacyDirty.dirtyAps, paafDirty.dirtyAps,
                legacyRes.step1CpuSeconds, paafRes.step1CpuSeconds);
    std::fflush(stdout);
    rows.push(obs::Json::object()
                  .set("benchmark", obs::Json(spec.name))
                  .set("uniqueInstances",
                       obs::Json(paafRes.unique.classes.size()))
                  .set("apsLegacy", obs::Json(legacyDirty.totalAps))
                  .set("apsPaaf", obs::Json(paafDirty.totalAps))
                  .set("dirtyLegacy", obs::Json(legacyDirty.dirtyAps))
                  .set("dirtyPaaf", obs::Json(paafDirty.dirtyAps))
                  .set("step1CpuSecondsLegacy",
                       obs::Json(legacyRes.step1CpuSeconds))
                  .set("step1CpuSecondsPaaf",
                       obs::Json(paafRes.step1CpuSeconds)));
#if PAO_OBS_ENABLED
    // Last selected testcase's PAAF pipeline profile wins — one headroom
    // sample per report is enough for the CI digest.
    report.attachProfile(paaf.lastGraphProfile());
#endif
  }
  std::printf("\nPaper shape check: PAAF generates MORE access points, with "
              "ZERO dirty points,\nwhile the TrRte baseline emits dirty "
              "points on every testcase.\n");
  report.bench().set("rows", std::move(rows));
  return report.write() ? 0 : 1;
}
