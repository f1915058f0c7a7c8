// Experiment 2 (Table III) reproduction: quality of access for ALL instance
// pins with intra- and inter-cell compatibility. Compares the TrRte baseline
// (no pattern mechanism; a pin passes when ANY of its points is clean in
// context) against PAAF without and with boundary-conflict awareness.
#include <cstdio>

#include "bench_common.hpp"
#include "benchgen/testcase.hpp"
#include "pao/evaluate.hpp"

int main() {
  using namespace pao;
  const double scale = bench::benchScale();
  bench::BenchReport report("bench_table3_exp2");
  obs::Json rows = obs::Json::array();

  std::printf("Table III — Experiment 2: failed pins with intra+inter-cell "
              "compatibility (scale %.3g; t = oracle wall s)\n",
              scale);
  std::printf("%-14s %10s | %9s %9s %9s | %8s %8s %8s\n", "Benchmark",
              "Total#Pins", "f:TrRte", "f:noBCA", "f:BCA", "t:TrRte",
              "t:noBCA", "t:BCA");
  bench::printRule(100);

  for (std::size_t i = 0; i < benchgen::ispd18Suite().size(); ++i) {
    if (!bench::testcaseSelected(static_cast<int>(i))) continue;
    const benchgen::TestcaseSpec spec = benchgen::ispd18Suite()[i];
    const benchgen::Testcase tc = benchgen::generate(spec, scale);

    core::PinAccessOracle legacy(*tc.design, core::legacyConfig());
    const core::OracleResult legacyRes = legacy.run();
    const core::FailedPinStats legacyFailed = core::countFailedPins(
        *tc.design, legacyRes, 0, core::FailedPinCriterion::kAnyAp);

    core::PinAccessOracle noBca(*tc.design, core::withoutBcaConfig());
    const core::OracleResult noBcaRes = noBca.run();
    const core::FailedPinStats noBcaFailed =
        core::countFailedPins(*tc.design, noBcaRes);

    core::PinAccessOracle bca(*tc.design, core::withBcaConfig());
    const core::OracleResult bcaRes = bca.run();
    const core::FailedPinStats bcaFailed =
        core::countFailedPins(*tc.design, bcaRes);

    std::printf("%-14s %10zu | %9zu %9zu %9zu | %8.2f %8.2f %8.2f\n",
                spec.name.c_str(), bcaFailed.totalPins,
                legacyFailed.failedPins, noBcaFailed.failedPins,
                bcaFailed.failedPins, legacyRes.wallSeconds,
                noBcaRes.wallSeconds, bcaRes.wallSeconds);
    std::fflush(stdout);
    rows.push(obs::Json::object()
                  .set("benchmark", obs::Json(spec.name))
                  .set("totalPins", obs::Json(bcaFailed.totalPins))
                  .set("failedLegacy", obs::Json(legacyFailed.failedPins))
                  .set("failedNoBca", obs::Json(noBcaFailed.failedPins))
                  .set("failedBca", obs::Json(bcaFailed.failedPins))
                  .set("wallSecondsLegacy", obs::Json(legacyRes.wallSeconds))
                  .set("wallSecondsNoBca", obs::Json(noBcaRes.wallSeconds))
                  .set("wallSecondsBca", obs::Json(bcaRes.wallSeconds)));
  }
  std::printf("\nPaper shape check: TrRte fails many pins; PAAF w/o BCA "
              "leaves a few inter-cell\nconflicts; PAAF w/ BCA reaches zero "
              "failed pins.\n");
  report.bench().set("rows", std::move(rows));
  return report.write() ? 0 : 1;
}
