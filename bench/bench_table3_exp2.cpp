// Experiment 2 (Table III) reproduction: quality of access for ALL instance
// pins with intra- and inter-cell compatibility. Compares the TrRte baseline
// (no pattern mechanism; a pin passes when ANY of its points is clean in
// context) against PAAF without and with boundary-conflict awareness.
//
// Two runtime columns per mode: `t`, the oracle's wall seconds for Steps
// 1-3, and `c`, thread CPU seconds of the same work plus the failed-pin
// evaluation that produces the `f` column. CPU time does not move with
// other load on a shared host, so `c` is the one to compare across cases.
#include <cstdio>

#include "bench_common.hpp"
#include "benchgen/testcase.hpp"
#include "pao/evaluate.hpp"
#include "util/cpu_time.hpp"

namespace {

/// Failed pins of `res` plus the CPU seconds of its oracle steps and of the
/// evaluation itself.
struct Evaluated {
  pao::core::FailedPinStats failed;
  double cpuSeconds = 0;
};

Evaluated evaluate(const pao::db::Design& design,
                   const pao::core::OracleResult& res,
                   pao::core::FailedPinCriterion criterion) {
  const double cpu0 = pao::util::threadCpuSeconds();
  Evaluated out;
  out.failed = pao::core::countFailedPins(design, res, 0, criterion);
  out.cpuSeconds = res.step1CpuSeconds + res.step2CpuSeconds +
                   res.step3CpuSeconds + pao::util::threadCpuSeconds() -
                   cpu0;
  return out;
}

}  // namespace

int main() {
  using namespace pao;
  const double scale = bench::benchScale();
  bench::BenchReport report("bench_table3_exp2");
  obs::Json rows = obs::Json::array();

  std::printf("Table III — Experiment 2: failed pins with intra+inter-cell "
              "compatibility (scale %.3g; t = oracle wall s, c = oracle step "
              "CPU + evaluation CPU s)\n",
              scale);
  std::printf("%-14s %10s | %9s %9s %9s | %8s %8s %8s | %8s %8s %8s\n",
              "Benchmark", "Total#Pins", "f:TrRte", "f:noBCA", "f:BCA",
              "t:TrRte", "t:noBCA", "t:BCA", "c:TrRte", "c:noBCA", "c:BCA");
  bench::printRule(130);

  for (std::size_t i = 0; i < benchgen::ispd18Suite().size(); ++i) {
    if (!bench::testcaseSelected(static_cast<int>(i))) continue;
    const benchgen::TestcaseSpec spec = benchgen::ispd18Suite()[i];
    const benchgen::Testcase tc = benchgen::generate(spec, scale);

    core::PinAccessOracle legacy(*tc.design, core::legacyConfig());
    const core::OracleResult legacyRes = legacy.run();
    const Evaluated legacyEval = evaluate(*tc.design, legacyRes,
                                          core::FailedPinCriterion::kAnyAp);

    core::PinAccessOracle noBca(*tc.design, core::withoutBcaConfig());
    const core::OracleResult noBcaRes = noBca.run();
    const Evaluated noBcaEval = evaluate(*tc.design, noBcaRes,
                                         core::FailedPinCriterion::kChosenAp);

    core::PinAccessOracle bca(*tc.design, core::withBcaConfig());
    const core::OracleResult bcaRes = bca.run();
    const Evaluated bcaEval =
        evaluate(*tc.design, bcaRes, core::FailedPinCriterion::kChosenAp);

    std::printf(
        "%-14s %10zu | %9zu %9zu %9zu | %8.2f %8.2f %8.2f | %8.2f %8.2f "
        "%8.2f\n",
        spec.name.c_str(), bcaEval.failed.totalPins,
        legacyEval.failed.failedPins, noBcaEval.failed.failedPins,
        bcaEval.failed.failedPins, legacyRes.wallSeconds, noBcaRes.wallSeconds,
        bcaRes.wallSeconds, legacyEval.cpuSeconds, noBcaEval.cpuSeconds,
        bcaEval.cpuSeconds);
    std::fflush(stdout);
    rows.push(obs::Json::object()
                  .set("benchmark", obs::Json(spec.name))
                  .set("totalPins", obs::Json(bcaEval.failed.totalPins))
                  .set("failedLegacy", obs::Json(legacyEval.failed.failedPins))
                  .set("failedNoBca", obs::Json(noBcaEval.failed.failedPins))
                  .set("failedBca", obs::Json(bcaEval.failed.failedPins))
                  .set("wallSecondsLegacy", obs::Json(legacyRes.wallSeconds))
                  .set("wallSecondsNoBca", obs::Json(noBcaRes.wallSeconds))
                  .set("wallSecondsBca", obs::Json(bcaRes.wallSeconds))
                  .set("cpuSecondsLegacy", obs::Json(legacyEval.cpuSeconds))
                  .set("cpuSecondsNoBca", obs::Json(noBcaEval.cpuSeconds))
                  .set("cpuSecondsBca", obs::Json(bcaEval.cpuSeconds)));
  }
  std::printf("\nPaper shape check: TrRte fails many pins; PAAF w/o BCA "
              "leaves a few inter-cell\nconflicts; PAAF w/ BCA reaches zero "
              "failed pins.\n");
  report.bench().set("rows", std::move(rows));
  return report.write() ? 0 : 1;
}
