#include "pao/oracle.hpp"

#include "pao/session.hpp"

namespace pao::core {

OracleConfig withoutBcaConfig() {
  OracleConfig cfg;
  cfg.patternGen.numPatterns = 1;
  cfg.patternGen.boundaryAware = false;
  return cfg;
}

OracleConfig withBcaConfig() {
  OracleConfig cfg;
  cfg.patternGen.numPatterns = 3;
  cfg.patternGen.boundaryAware = true;
  return cfg;
}

OracleConfig legacyConfig() {
  OracleConfig cfg;
  cfg.legacyMode = true;
  return cfg;
}

std::size_t OracleResult::totalAps() const {
  std::size_t n = 0;
  for (const ClassAccess& ca : classes) {
    for (const std::vector<AccessPoint>& aps : ca.pinAps) n += aps.size();
  }
  return n;
}

std::optional<OracleResult::ChosenAp> OracleResult::chosenAp(
    const db::Design& design, int instIdx, int sigPinPos) const {
  const int cls = unique.classOf[instIdx];
  if (cls < 0) return std::nullopt;
  const ClassAccess& ca = classes[cls];
  const int pat = chosenPattern[instIdx];
  if (pat < 0 || pat >= static_cast<int>(ca.patterns.size())) {
    return std::nullopt;
  }
  if (sigPinPos >= static_cast<int>(ca.patterns[pat].apIdx.size())) {
    return std::nullopt;
  }
  const int apIdx = ca.patterns[pat].apIdx[sigPinPos];
  if (apIdx < 0) return std::nullopt;
  const AccessPoint& ap = ca.pinAps[sigPinPos][apIdx];
  const db::UniqueInstance& ui = unique.classes[cls];
  const geom::Point repOrigin = design.instances[ui.representative].origin;
  const geom::Point origin = design.instances[instIdx].origin;
  return ChosenAp{&ap, ap.loc + (origin - repOrigin)};
}

PinAccessOracle::PinAccessOracle(const db::Design& design, OracleConfig cfg)
    : design_(&design), cfg_(cfg) {}

OracleResult PinAccessOracle::run() {
  // The batch oracle is a thin wrapper these days: a read-only OracleSession
  // does the full Steps 1-3 build, and its snapshot is the batch result.
  const OracleSession session(*design_, cfg_);
#if PAO_OBS_ENABLED
  graphProfile_ = session.lastGraphProfile();
#endif
  return session.snapshot();
}

}  // namespace pao::core
