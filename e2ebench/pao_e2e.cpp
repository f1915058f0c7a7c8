// pao_e2e — the in-process half of the end-to-end benchmark. run.py owns
// the workload plan, the pao_cli child processes and the metric summary;
// this binary generates the seeded inputs and runs everything that has to
// live inside one process:
//
//   pao_e2e gen <workload> <seed> <prefix> <reps>
//       Generates the workload's LEF/DEF through benchgen and the lefdef
//       writers `reps` times (each a timed set-up sample), leaving
//       <prefix>.lef / <prefix>.def behind.
//   pao_e2e inproc <lef> <def> <reps> <out-dir> [pao_cli-report ...]
//       The traced run: calls the public functions `pao_cli analyze`
//       calls, in the same order, with a span around every layer. Checks
//       the chosen-access digest across repetitions and the given pao_cli
//       reports against the in-process report.
//   pao_e2e eco <workload> <seed> <lef> <def> <min-ops> <seconds> <trace>
//               <out-dir>
//       The measured run. Loads the design into an in-process
//       serve::Service, then alternates `pao_cli analyze` children (run by
//       the caller: this prints "child <k>" and reads back the total child
//       count; child k writes <out-dir>/cli<k>.json) with slices of the
//       seeded ECO stream, sent closed loop by one caller through
//       handleLine, until `seconds` have passed and at least `min-ops`
//       requests were sent; plus `report` requests at the start, at the
//       end and (on serve_eco) periodically.
//   pao_e2e selftest
//       ECO-stream determinism and legality, and digest stability.
//
// Every subcommand prints one JSON object as the last line of stdout and
// exits 0 when it ran (check failures are reported inside the JSON);
// anything else is a crash of the benchmark itself (exit 2).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchgen/huge.hpp"
#include "benchgen/testcase.hpp"
#include "db/legality.hpp"
#include "db/unique_inst.hpp"
#include "lefdef/def_parser.hpp"
#include "lefdef/def_writer.hpp"
#include "lefdef/lef_parser.hpp"
#include "lefdef/lef_writer.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "pao/cluster_select.hpp"
#include "pao/evaluate.hpp"
#include "pao/oracle.hpp"
#include "pao/report_json.hpp"
#include "pao/session.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "util/cpu_time.hpp"

namespace {

using namespace pao;
using Clock = std::chrono::steady_clock;
using obs::Json;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Json numbers(const std::vector<double>& v) {
  Json a = Json::array();
  for (const double x : v) a.push(Json(x));
  return a;
}

// --- workloads -------------------------------------------------------------

enum class Workload { kShared, kDiverse, kEco };

Workload parseWorkload(const std::string& name) {
  if (name == "analyze_shared") return Workload::kShared;
  if (name == "analyze_diverse") return Workload::kDiverse;
  if (name == "serve_eco") return Workload::kEco;
  throw std::runtime_error("unknown workload '" + name + "'");
}

/// Writes the workload's seeded LEF/DEF to <prefix>.lef/.def. The seed goes
/// into the preset's own spec field, since `pao_cli gen` takes none.
void writeInputs(Workload w, unsigned seed, const std::string& prefix) {
  std::ofstream lef(prefix + ".lef");
  std::ofstream def(prefix + ".def");
  if (w == Workload::kShared) {
    benchgen::HugeSpec hs = benchgen::hugeSpec();
    hs.seed = seed;
    const benchgen::HugeTechLib tl = benchgen::makeHugeTechLib(hs);
    lef << lefdef::writeLef(*tl.tech, *tl.lib);
    benchgen::writeHugeDef(hs, 0.1, *tl.tech, *tl.lib, def);
  } else {
    benchgen::TestcaseSpec spec = w == Workload::kDiverse
                                      ? benchgen::ispd18Suite().at(3)
                                      : benchgen::mixedSpec();
    spec.seed = seed;
    const benchgen::Testcase tc =
        benchgen::generate(spec, w == Workload::kDiverse ? 0.2 : 1.0);
    lef << lefdef::writeLef(*tc.tech, *tc.lib);
    def << lefdef::writeDef(*tc.design);
  }
  lef.close();
  def.close();
  if (!lef || !def) throw std::runtime_error("cannot write " + prefix);
}

struct Loaded {
  db::Tech tech;
  db::Library lib;
  db::Design design;
};

void parseInto(Loaded& ld, const std::string& lefPath,
               const std::string& defPath) {
  lefdef::ParseOptions lefOpts;
  lefOpts.file = lefPath;
  lefdef::parseLef(slurp(lefPath), ld.tech, ld.lib, lefOpts);
  ld.design.tech = &ld.tech;
  ld.design.lib = &ld.lib;
  lefdef::ParseOptions defOpts;
  defOpts.file = defPath;
  lefdef::parseDef(slurp(defPath), ld.design, defOpts);
}

core::OracleConfig analyzeConfig() {
  core::OracleConfig cfg = core::withBcaConfig();
  cfg.numThreads = 1;
  return cfg;
}

// --- spans -----------------------------------------------------------------

/// In-memory span log of the traced run, written out as a Chrome trace
/// when the run ends. Spans are recorded here, around the calls into each
/// layer, not inside the program.
class SpanLog {
 public:
  int begin(std::string name, int parent) {
    spans_.push_back({std::move(name), parent, now(), -1});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Closes span `id`; returns its duration in seconds.
  double end(int id) {
    spans_[id].endUs = now();
    return seconds(id);
  }
  double seconds(int id) const {
    return (spans_[id].endUs - spans_[id].startUs) * 1e-6;
  }
  /// Summed duration of the direct children of `id`.
  double childSeconds(int id) const {
    double s = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent == id) s += seconds(static_cast<int>(i));
    }
    return s;
  }
  Json chromeTrace() const {
    Json events = Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Json e = Json::object();
      e.set("name", Json(s.name));
      e.set("ph", Json("X"));
      e.set("ts", Json(s.startUs));
      e.set("dur", Json(s.endUs - s.startUs));
      e.set("pid", Json(1));
      e.set("tid", Json(1));
      Json args = Json::object();
      args.set("id", Json(i));
      args.set("parent", Json(static_cast<long long>(s.parent)));
      e.set("args", std::move(args));
      events.push(std::move(e));
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    return doc;
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double startUs;
    double endUs;
  };
  double now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

// --- output digests and report checks ---------------------------------------

std::uint64_t mix(std::uint64_t h, long long v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xffU;
    h *= 1099511628211ULL;
  }
  return h;
}

/// FNV-1a digest of the chosen access point of every (instance, signal pin):
/// pattern index, placed location, layer and primary via.
std::uint64_t chosenApDigest(const db::Design& design,
                             const core::OracleResult& res) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < design.instances.size(); ++i) {
    const int cls = res.unique.classOf[i];
    if (cls < 0) continue;
    const int inst = static_cast<int>(i);
    h = mix(h, inst);
    h = mix(h, res.chosenPattern[i]);
    const std::size_t pins = res.classes[cls].pinAps.size();
    for (std::size_t p = 0; p < pins; ++p) {
      const auto ap = res.chosenAp(design, inst, static_cast<int>(p));
      if (!ap) {
        h = mix(h, -1);
        continue;
      }
      h = mix(h, ap->loc.x);
      h = mix(h, ap->loc.y);
      h = mix(h, ap->ap->layer);
      h = mix(h, ap->ap->primaryViaIdx());
    }
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

Json normalizedSections(const Json& doc,
                        const std::vector<std::string>& names) {
  Json out = Json::object();
  for (const std::string& n : names) {
    const Json* s = doc.find(n);
    out.set(n, s != nullptr ? obs::normalizeForCompare(*s) : Json());
  }
  return out;
}

/// Collects check failures; the benchmark's "correct" is errors.empty().
struct Checks {
  std::vector<std::string> errors;
  void require(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  Json json() const {
    Json a = Json::array();
    for (const std::string& e : errors) a.push(Json(e));
    return a;
  }
};

/// Checks pao_cli reports: each one validates, all of them agree with each
/// other (timing keys stripped), and their `sections` equal `reference`'s.
void checkCliReports(const std::vector<std::string>& paths,
                     const Json& reference,
                     const std::vector<std::string>& sections,
                     const std::string& referenceName, Checks& checks) {
  std::optional<Json> first;
  for (const std::string& path : paths) {
    std::string error;
    const std::optional<Json> doc = Json::parse(slurp(path), &error);
    if (!doc) {
      checks.errors.push_back(path + ": not JSON: " + error);
      continue;
    }
    checks.require(obs::validateReport(*doc, &error),
                   path + ": fails validateReport: " + error);
    Json body = *doc;
    body.set("env", Json());
    const Json norm = obs::normalizeForCompare(body);
    if (!first) {
      first = norm;
    } else {
      checks.require(norm == *first,
                     path + ": differs from the first pao_cli report");
    }
    checks.require(normalizedSections(*doc, sections) ==
                       normalizedSections(reference, sections),
                   path + ": sections differ from the " + referenceName);
  }
}

// --- the traced analyze pipeline -----------------------------------------------

struct PipelineRep {
  std::map<std::string, double> metrics;
  std::uint64_t digest = 0;
  std::size_t dirtyAps = 0;
  Json report;
};

/// Share of buildClusters clusters whose (class, x-offset to the previous
/// member) sequence repeats an earlier cluster's.
double repeatClusterFrac(const db::Design& design,
                         const std::vector<int>& classOf) {
  const std::vector<std::vector<int>> clusters = core::buildClusters(design);
  std::set<std::vector<long long>> seen;
  std::size_t repeats = 0;
  for (const std::vector<int>& c : clusters) {
    std::vector<long long> key;
    key.reserve(2 * c.size());
    for (std::size_t k = 0; k < c.size(); ++k) {
      key.push_back(classOf[c[k]]);
      key.push_back(k == 0 ? 0
                           : design.instances[c[k]].origin.x -
                                 design.instances[c[k - 1]].origin.x);
    }
    if (!seen.insert(std::move(key)).second) ++repeats;
  }
  return clusters.empty() ? 0.0
                          : static_cast<double>(repeats) /
                                static_cast<double>(clusters.size());
}

/// One `pao_cli analyze` worth of work: each layer call a span under one
/// root span, whose wall time is the traced wall.
PipelineRep runPipeline(const std::string& lefPath, const std::string& defPath,
                        const std::string& reportPath, SpanLog& spans) {
  obs::Registry::instance().reset();
  PipelineRep rep;
  auto& m = rep.metrics;
  const int root = spans.begin("analyze", -1);
  Loaded ld;
  const core::OracleConfig cfg = analyzeConfig();

  int s = spans.begin("lefdef.lef_parse", root);
  {
    lefdef::ParseOptions opts;
    opts.file = lefPath;
    lefdef::parseLef(slurp(lefPath), ld.tech, ld.lib, opts);
  }
  m["lefdef.lef_parse_s"] = spans.end(s);
  ld.design.tech = &ld.tech;
  ld.design.lib = &ld.lib;
  s = spans.begin("lefdef.def_parse", root);
  std::size_t defBytes = 0;
  {
    const std::string text = slurp(defPath);
    defBytes = text.size();
    lefdef::ParseOptions opts;
    opts.file = defPath;
    lefdef::parseDef(text, ld.design, opts);
  }
  m["lefdef.def_parse_s"] = spans.end(s);
  m["lefdef.def_mb_per_s"] = static_cast<double>(defBytes) / 1e6 /
                             std::max(m["lefdef.def_parse_s"], 1e-9);

  s = spans.begin("db.placement_check", root);
  const std::vector<db::PlacementViolation> placement =
      db::checkPlacement(ld.design);
  m["db.placement_check_s"] = spans.end(s);
  m["db.placement_violations"] = static_cast<double>(placement.size());

  s = spans.begin("pao.session_build", root);
  const double cpu0 = util::threadCpuSeconds();
  const core::OracleSession session(static_cast<const db::Design&>(ld.design),
                                    cfg);
  m["pao.session_build_cpu_s"] = util::threadCpuSeconds() - cpu0;
  m["pao.session_build_s"] = spans.end(s);

  s = spans.begin("pao.snapshot", root);
  const core::OracleResult res = session.snapshot();
  m["pao.snapshot_s"] = spans.end(s);

  s = spans.begin("eval.dirty_aps", root);
  const core::DirtyApStats dirty = core::countDirtyAps(ld.design, res);
  m["eval.dirty_aps_s"] = spans.end(s);
  s = spans.begin("eval.failed_pins", root);
  const core::FailedPinStats failed = core::countFailedPins(
      ld.design, res, 0, core::FailedPinCriterion::kChosenAp);
  m["eval.failed_pins_s"] = spans.end(s);
  m["eval.pins_checked"] = static_cast<double>(failed.totalPins);

  s = spans.begin("report.emit", root);
  {
    obs::RunReport report("pao_cli analyze");
    report.section("design") =
        core::designSectionJson(ld.tech, ld.lib, ld.design);
    report.section("config") =
        core::analysisConfigJson("bca", cfg.numThreads, cfg.keepGoing);
    report.section("oracle") = core::oracleSectionJson(res, dirty, failed);
    report.section("session") = core::sessionSectionJson(session.stats());
    report.captureMetrics();
    std::string error;
    if (!obs::validateReport(report.doc(), &error) ||
        !report.writeFile(reportPath, &error)) {
      throw std::runtime_error("in-process report: " + error);
    }
    rep.report = report.doc();
  }
  m["report.emit_s"] = spans.end(s);
  const double wall = spans.end(root);
  m["trace.wall_s"] = wall;
  m["trace.unattributed_s"] = wall - spans.childSeconds(root);

  // Outside the traced wall: program-reported and derived numbers.
  m["pao.step1_cpu_s"] = res.step1CpuSeconds;
  m["pao.step2_cpu_s"] = res.step2CpuSeconds;
  m["pao.step3_cpu_s"] = res.step3CpuSeconds;
  const core::OracleSession::Stats& st = session.stats();
  m["pao.class_builds"] = static_cast<double>(st.classBuilds);
  m["pao.step3.cluster_dp_runs"] = static_cast<double>(st.clusterDpRuns);
  m["pao.step3.pair_checks"] = static_cast<double>(st.pairChecks);
  m["pao.step1.aps_generated"] = static_cast<double>(
      obs::Registry::instance().counter("pao.step1.aps_generated").value());
  m["db.unique_classes"] = static_cast<double>(res.unique.classes.size());
  m["pao.step3.repeat_cluster_frac"] =
      repeatClusterFrac(ld.design, res.unique.classOf);
  // Extraction normally runs inside the session constructor; this extra
  // call times it alone and is not part of the traced wall.
  s = spans.begin("db.unique_extract (extra call)", -1);
  {
    const db::UniqueInstanceIndex index(ld.design, 1);
    if (index.classes().classes.size() != res.unique.classes.size()) {
      throw std::runtime_error("unique extraction disagrees with session");
    }
  }
  m["db.unique_extract_s"] = spans.end(s);
  rep.dirtyAps = dirty.dirtyAps;
  rep.digest = chosenApDigest(ld.design, res);
  return rep;
}

int cmdInproc(const std::vector<std::string>& args) {
  if (args.size() < 4) throw std::runtime_error("inproc: missing arguments");
  const std::string& lef = args[0];
  const std::string& def = args[1];
  const int reps = std::max(1, std::stoi(args[2]));
  const std::string outDir = args[3];
  const std::vector<std::string> cliReports(args.begin() + 4, args.end());

  SpanLog spans;
  Checks checks;
  std::vector<PipelineRep> runs;
  for (int r = 0; r < reps; ++r) {
    runs.push_back(runPipeline(lef, def, outDir + "/inproc_report.json",
                               spans));
    checks.require(runs.back().digest == runs.front().digest,
                   "chosen-AP digest changed between repetitions");
    checks.require(runs.back().dirtyAps == 0,
                   "in-process run has dirty access points");
  }
  checkCliReports(cliReports, runs.front().report,
                  {"design", "config", "oracle", "session"},
                  "traced in-process report", checks);
  {
    std::ofstream out(outDir + "/inproc_trace.json");
    out << spans.chromeTrace().dump(0) << "\n";
  }

  Json samples = Json::object();
  for (const auto& [name, v] : runs.front().metrics) {
    std::vector<double> vals;
    for (const PipelineRep& r : runs) vals.push_back(r.metrics.at(name));
    samples.set(name, numbers(vals));
  }
  Json digests = Json::array();
  for (const PipelineRep& r : runs) digests.push(Json(hex(r.digest)));
  Json out = Json::object();
  out.set("samples", std::move(samples));
  out.set("digests", std::move(digests));
  out.set("errors", checks.json());
  std::printf("%s\n", out.dump(0).c_str());
  return 0;
}

// --- the seeded ECO stream ---------------------------------------------------

/// A pure function of (design, seed): the request lines of a closed-loop
/// ECO caller. It keeps its own placement model (per-row site occupancy) so
/// that every move and add lands on free, row-snapped sites and mutations
/// create no new overlaps. Instances are addressed by name, which stays
/// valid while removes renumber indices.
///
/// The stream is made of episodes in a fixed cycle of four: shift, flip,
/// shift, ECO. A shift episode is the move-then-evaluate loop of
/// examples/placement_advisor.cpp, the placement-optimization use case of
/// the paper's Experiment 2. The flip and ECO episodes, their share of the
/// cycle and the report cadence are assumptions with no source in the
/// repository (see e2ebench/README.md).
class EcoStream {
 public:
  /// `reportEvery`: a full `report` before every reportEvery-th episode
  /// (0: never).
  EcoStream(const db::Design& design, std::uint64_t seed, std::string tenant,
            std::size_t reportEvery = 0)
      : rng_(seed * 0x9E3779B97F4A7C15ULL + 0x5eedULL),
        tenant_(std::move(tenant)),
        reportEvery_(reportEvery) {
    for (const db::Row& r : design.rows) rows_.push_back(r);
    std::sort(rows_.begin(), rows_.end(),
              [](const db::Row& a, const db::Row& b) {
                return a.origin.y < b.origin.y;
              });
    if (rows_.size() < 2) throw std::runtime_error("ECO needs >= 2 rows");
    rowHeight_ = rows_[1].origin.y - rows_[0].origin.y;
    for (std::size_t r = 1; r < rows_.size(); ++r) {
      rowHeight_ =
          std::min(rowHeight_, rows_[r].origin.y - rows_[r - 1].origin.y);
    }
    occ_.resize(rows_.size());
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      occ_[r].assign(static_cast<std::size_t>(rows_[r].numSites), 0);
    }
    for (const db::Instance& inst : design.instances) {
      const int id = static_cast<int>(cells_.size());
      cells_.push_back({inst.name, inst.master, inst.origin, inst.orient});
      const db::MasterClass mc = inst.master->cls;
      // Macros block their surroundings too: placers keep a halo clear.
      mark(id, +1, mc == db::MasterClass::kBlock ? kMacroHalo : 0);
      if (mc != db::MasterClass::kCore) continue;
      const bool hasSignal = !inst.master->signalPinIndices().empty();
      if (hasSignal) mirrorable_.push_back(id);
      if (hasSignal && inst.master->height == rowHeight_ &&
          rowOf(inst.origin.y) >= 0) {
        movable_.push_back(id);
      }
    }
    for (const auto& mp : design.lib->masters()) {
      if (mp->cls == db::MasterClass::kCore && mp->height == rowHeight_ &&
          !mp->signalPinIndices().empty()) {
        addMasters_.push_back(mp.get());
      }
    }
    if (movable_.empty() || addMasters_.empty()) {
      throw std::runtime_error("ECO stream: nothing movable");
    }
  }

  struct Op {
    std::string cmd;
    std::string line;
  };

  /// The next request; a new episode starts when the last one is sent.
  Op next() {
    if (pending_.empty()) episode();
    Op op = std::move(pending_.front());
    pending_.pop_front();
    return op;
  }

  /// Names of the live instances the stream has moved or added (for the
  /// legality self-test).
  std::vector<std::string> touchedNames() const {
    std::vector<std::string> out;
    for (const int id : touched_) {
      if (cells_[id].alive) out.push_back(cells_[id].name);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

 private:
  static constexpr int kMacroHalo = 4;  ///< sites and rows around a macro
  static constexpr int kAttempts = 64;

  struct Cell {
    std::string name;
    const db::Master* master;
    geom::Point origin;
    geom::Orient orient;
    bool alive = true;
  };

  std::uint64_t draw(std::uint64_t n) { return rng_() % n; }

  void episode() {
    const std::size_t e = episodes_++;
    if (reportEvery_ > 0 && e > 0 && e % reportEvery_ == 0) {
      pending_.push_back({"report", request("report").dump(0)});
    }
    const std::size_t kind = e % 4;
    if ((kind == 0 || kind == 2) && shiftEpisode()) return;
    if (kind == 3 && ecoEpisode()) return;
    // A flip, and the fallback of an episode that found no legal target.
    if (std::optional<Op> op = genOrient()) pending_.push_back(std::move(*op));
    pending_.push_back(genQuery());
  }

  /// The advisor's loop: evaluate a cell where it stands, then at each
  /// candidate shift along its row, one region `query` per candidate (the
  /// incremental counterpart of the advisor's full run per candidate), and
  /// keep one position. The candidates are the advisor's offsets, 1, 2, 3,
  /// 5 and 8 sites, each tried in a seeded direction and then the other,
  /// and used when the cell lands on free sites there. A stream that read
  /// the replies would stop being a pure function of the seed, so the seed
  /// picks the position kept.
  bool shiftEpisode() {
    static constexpr long long kOffsets[] = {1, 2, 3, 5, 8};
    for (int a = 0; a < kAttempts; ++a) {
      const int id = movable_[draw(movable_.size())];
      if (!cells_[id].alive) continue;
      const geom::Point home = cells_[id].origin;
      const int row = rowOf(home.y);
      const long long site0 =
          (home.x - rows_[row].origin.x) / rows_[row].siteWidth;
      const long long width = sitesOf(cells_[id].master, row);
      const long long sign = draw(2) == 0 ? 1 : -1;
      std::vector<geom::Point> candidates{home};
      mark(id, -1);
      for (const long long d : kOffsets) {
        for (const long long s : {sign, -sign}) {
          if (spanFree(row, site0 + s * d, width)) {
            candidates.push_back(siteOrigin(row, site0 + s * d));
            break;
          }
        }
      }
      mark(id, +1);
      if (candidates.size() < 2) continue;
      aimQueryAt(id);
      pending_.push_back(genQuery());
      for (std::size_t k = 1; k < candidates.size(); ++k) {
        pending_.push_back(moveTo(id, candidates[k]));
        pending_.push_back(genQuery());
      }
      const geom::Point keep = candidates[draw(candidates.size())];
      if (!(keep == cells_[id].origin)) pending_.push_back(moveTo(id, keep));
      return true;
    }
    return false;
  }

  /// An ECO cell insertion or, every other time, the removal of the oldest
  /// cell the stream inserted; a region `query` follows either.
  bool ecoEpisode() {
    std::optional<Op> op =
        ecoCount_++ % 2 == 1 && !added_.empty() ? genRemove() : genAdd();
    if (!op) return false;
    pending_.push_back(std::move(*op));
    pending_.push_back(genQuery());
    return true;
  }

  int rowOf(geom::Coord y) const {
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      if (rows_[r].origin.y == y) return static_cast<int>(r);
    }
    return -1;
  }

  static geom::Rect bbox(const Cell& c) {
    db::Instance inst;
    inst.master = c.master;
    inst.origin = c.origin;
    inst.orient = c.orient;
    return inst.bbox();
  }

  /// Adds `delta` to the occupancy of every site `id`'s bbox (grown by
  /// `halo` sites and rows) covers.
  void mark(int id, int delta, int halo = 0) {
    const geom::Rect b = bbox(cells_[id]);
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      const db::Row& row = rows_[r];
      const geom::Coord lo = row.origin.y - halo * rowHeight_;
      const geom::Coord hi = row.origin.y + (1 + halo) * rowHeight_;
      if (!(lo < b.yhi && b.ylo < hi) || row.siteWidth <= 0) continue;
      const geom::Coord sw = row.siteWidth;
      const geom::Coord x0 = b.xlo - row.origin.x;
      const geom::Coord x1 = b.xhi - row.origin.x;
      long long s0 = (x0 >= 0 ? x0 / sw : -((-x0 + sw - 1) / sw)) - halo;
      long long s1 = (x1 + sw - 1) / sw + halo;
      s0 = std::max<long long>(s0, 0);
      s1 = std::min<long long>(s1, row.numSites);
      for (long long s = s0; s < s1; ++s) {
        occ_[r][static_cast<std::size_t>(s)] = static_cast<std::uint16_t>(
            occ_[r][static_cast<std::size_t>(s)] + delta);
      }
    }
  }

  bool spanFree(int row, long long site, long long nSites) const {
    if (row < 0 || row >= static_cast<int>(rows_.size())) return false;
    if (site < 0 || site + nSites > rows_[row].numSites) return false;
    for (long long s = site; s < site + nSites; ++s) {
      if (occ_[row][static_cast<std::size_t>(s)] != 0) return false;
    }
    return true;
  }

  long long sitesOf(const db::Master* m, int row) const {
    const geom::Coord sw = rows_[row].siteWidth;
    return (m->width + sw - 1) / sw;
  }

  geom::Point siteOrigin(int row, long long site) const {
    return {rows_[row].origin.x +
                static_cast<geom::Coord>(site) * rows_[row].siteWidth,
            rows_[row].origin.y};
  }

  Json request(const std::string& cmd) const {
    Json j = Json::object();
    j.set("cmd", Json(cmd));
    j.set("tenant", Json(tenant_));
    return j;
  }

  void aimQueryAt(int id) {
    const geom::Rect b = bbox(cells_[id]);
    const geom::Coord sw = rows_.front().siteWidth;
    lastRegion_ = {b.xlo - 8 * sw, b.ylo - rowHeight_, b.xhi + 8 * sw,
                   b.yhi + rowHeight_};
    haveRegion_ = true;
  }

  /// First free span of `nSites` sites in `row`, scanning forward from
  /// `start` and wrapping; -1 when none.
  long long findFree(int row, long long start, long long nSites) const {
    const long long span = rows_[row].numSites - nSites + 1;
    for (long long k = 0; k < span; ++k) {
      const long long site = (start + k) % span;
      if (spanFree(row, site, nSites)) return site;
    }
    return -1;
  }

  /// Moves a cell to a free position the caller has checked.
  Op moveTo(int id, geom::Point to) {
    Cell& c = cells_[id];
    mark(id, -1);
    c.origin = to;
    mark(id, +1);
    touched_.push_back(id);
    aimQueryAt(id);
    Json j = request("move");
    j.set("inst", Json(c.name));
    j.set("x", Json(static_cast<long long>(c.origin.x)));
    j.set("y", Json(static_cast<long long>(c.origin.y)));
    return Op{"move", j.dump(0)};
  }

  /// In-place mirror about the y axis: the footprint and the row
  /// orientation are unchanged, so the placement stays legal.
  std::optional<Op> genOrient() {
    for (int a = 0; a < kAttempts; ++a) {
      const int id = mirrorable_[draw(mirrorable_.size())];
      Cell& c = cells_[id];
      if (!c.alive) continue;
      geom::Orient o = c.orient;
      if (o == geom::Orient::R0) {
        o = geom::Orient::MY;
      } else if (o == geom::Orient::MY) {
        o = geom::Orient::R0;
      } else if (o == geom::Orient::MX) {
        o = geom::Orient::R180;
      } else if (o == geom::Orient::R180) {
        o = geom::Orient::MX;
      } else {
        continue;
      }
      c.orient = o;
      aimQueryAt(id);
      Json j = request("orient");
      j.set("inst", Json(c.name));
      j.set("orient", Json(std::string(geom::toString(o))));
      return Op{"orient", j.dump(0)};
    }
    return std::nullopt;
  }

  /// A new single-height cell on the first free sites found from a random
  /// spot of a random row, in that row's orientation.
  std::optional<Op> genAdd() {
    const db::Master* m = addMasters_[draw(addMasters_.size())];
    for (int a = 0; a < kAttempts; ++a) {
      const int row = static_cast<int>(draw(rows_.size()));
      const long long n = sitesOf(m, row);
      if (n > rows_[row].numSites) continue;
      const long long site = findFree(
          row, static_cast<long long>(draw(rows_[row].numSites)), n);
      if (site < 0) continue;
      const int id = static_cast<int>(cells_.size());
      cells_.push_back({"eco_" + std::to_string(addCount_++), m,
                        siteOrigin(row, site), rows_[row].orient});
      mark(id, +1);
      added_.push_back(id);
      touched_.push_back(id);
      aimQueryAt(id);
      const Cell& c = cells_[id];
      Json j = request("add");
      j.set("master", Json(m->name));
      j.set("name", Json(c.name));
      j.set("x", Json(static_cast<long long>(c.origin.x)));
      j.set("y", Json(static_cast<long long>(c.origin.y)));
      j.set("orient", Json(std::string(geom::toString(c.orient))));
      return Op{"add", j.dump(0)};
    }
    return std::nullopt;
  }

  /// Removes the oldest instance the stream added (adds and removes pair).
  std::optional<Op> genRemove() {
    if (added_.empty()) return std::nullopt;
    const int id = added_.front();
    added_.pop_front();
    mark(id, -1);
    cells_[id].alive = false;
    aimQueryAt(id);
    Json j = request("remove");
    j.set("inst", Json(cells_[id].name));
    return Op{"remove", j.dump(0)};
  }

  /// Region read around the last edited spot.
  Op genQuery() {
    if (!haveRegion_) aimQueryAt(movable_[draw(movable_.size())]);
    Json box = Json::array();
    box.push(Json(static_cast<long long>(lastRegion_.xlo)));
    box.push(Json(static_cast<long long>(lastRegion_.ylo)));
    box.push(Json(static_cast<long long>(lastRegion_.xhi)));
    box.push(Json(static_cast<long long>(lastRegion_.yhi)));
    Json j = request("query");
    j.set("region", std::move(box));
    return Op{"query", j.dump(0)};
  }

  std::mt19937_64 rng_;
  std::string tenant_;
  std::size_t reportEvery_;
  std::vector<db::Row> rows_;
  geom::Coord rowHeight_ = 0;
  std::vector<std::vector<std::uint16_t>> occ_;
  std::vector<Cell> cells_;
  std::vector<int> movable_;
  std::vector<int> mirrorable_;
  std::vector<const db::Master*> addMasters_;
  std::deque<int> added_;
  std::vector<int> touched_;
  std::deque<Op> pending_;
  std::size_t episodes_ = 0;
  std::size_t ecoCount_ = 0;
  int addCount_ = 0;
  geom::Rect lastRegion_{};
  bool haveRegion_ = false;
};

// --- query rendering (the check's independent view of `query`) --------------

/// What `query` must answer for `region`, given a pattern/AP view of some
/// oracle state (a shadow session or a fresh batch run).
Json expectedQuery(
    const db::Design& design, const geom::Rect& region,
    const std::function<int(int)>& patternOf,
    const std::function<int(int)>& pinCount,
    const std::function<std::optional<geom::Point>(int, int)>& apOf) {
  Json instances = Json::array();
  for (std::size_t i = 0; i < design.instances.size(); ++i) {
    const geom::Rect b = design.instances[i].bbox();
    if (!(b.xlo < region.xhi && region.xlo < b.xhi && b.ylo < region.yhi &&
          region.ylo < b.yhi)) {
      continue;
    }
    const int idx = static_cast<int>(i);
    Json j = Json::object();
    j.set("inst", Json(i));
    j.set("name", Json(design.instances[i].name));
    j.set("pattern", Json(patternOf(idx)));
    Json aps = Json::array();
    const int pins = pinCount(idx);
    for (int p = 0; p < pins; ++p) {
      const std::optional<geom::Point> loc = apOf(idx, p);
      if (!loc) continue;
      Json a = Json::object();
      a.set("pin", Json(static_cast<std::size_t>(p)));
      a.set("x", Json(static_cast<long long>(loc->x)));
      a.set("y", Json(static_cast<long long>(loc->y)));
      aps.push(std::move(a));
    }
    j.set("aps", std::move(aps));
    instances.push(std::move(j));
  }
  Json result = Json::object();
  result.set("instances", std::move(instances));
  return result;
}

Json expectedQuery(const core::OracleSession& s, const geom::Rect& region) {
  return expectedQuery(
      s.design(), region,
      [&](int i) { return s.chosenPattern()[i]; },
      [&](int i) {
        const int cls = s.unique().classOf[i];
        return cls < 0 ? 0
                       : static_cast<int>(s.classAccess(cls).pinAps.size());
      },
      [&](int i, int p) -> std::optional<geom::Point> {
        const auto ap = s.chosenAp(i, p);
        if (!ap) return std::nullopt;
        return ap->loc;
      });
}

Json expectedQuery(const db::Design& d, const core::OracleResult& res,
                   const geom::Rect& region) {
  return expectedQuery(
      d, region, [&](int i) { return res.chosenPattern[i]; },
      [&](int i) {
        const int cls = res.unique.classOf[i];
        return cls < 0 ? 0 : static_cast<int>(res.classes[cls].pinAps.size());
      },
      [&](int i, int p) -> std::optional<geom::Point> {
        const auto ap = res.chosenAp(d, i, p);
        if (!ap) return std::nullopt;
        return ap->loc;
      });
}

/// Applies one recorded ECO request to a shadow session, exactly as the
/// service's grammar defines it.
void applyToShadow(core::OracleSession& s, const db::Library& lib,
                   const Json& req) {
  const std::string cmd = req.find("cmd")->asString();
  const db::Design& d = s.design();
  if (cmd == "add") {
    db::Instance inst;
    inst.name = req.find("name")->asString();
    inst.master = lib.findMaster(req.find("master")->asString());
    inst.origin = {static_cast<geom::Coord>(req.find("x")->asInt()),
                   static_cast<geom::Coord>(req.find("y")->asInt())};
    inst.orient = geom::orientFromString(req.find("orient")->asString());
    s.addInstance(std::move(inst));
    return;
  }
  const int idx = d.findInstance(req.find("inst")->asString());
  if (idx < 0) throw std::runtime_error("shadow: unknown instance");
  if (cmd == "move") {
    s.moveInstance(idx, {static_cast<geom::Coord>(req.find("x")->asInt()),
                         static_cast<geom::Coord>(req.find("y")->asInt())});
  } else if (cmd == "orient") {
    s.setOrient(idx, geom::orientFromString(req.find("orient")->asString()));
  } else if (cmd == "remove") {
    s.removeInstance(idx);
  }
}

/// Compares a full `query` of the session with the same rendering of a
/// fresh batch run: instances and chosen patterns must agree (the session's
/// documented equivalence); chosen AP locations are counted separately.
struct BatchDiff {
  std::size_t patterns = 0;  ///< instances whose name or pattern differs
  std::size_t aps = 0;       ///< same pattern, different AP locations
  std::string first;         ///< first pattern difference, for the log
};

BatchDiff diffAgainstBatch(const Json& session, const Json& batch) {
  BatchDiff d;
  const auto& a = session.find("instances")->items();
  const auto& b = batch.find("instances")->items();
  if (a.size() != b.size()) {
    d.patterns = std::max(a.size(), b.size());
    d.first = "instance counts differ";
    return d;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(*a[i].find("name") == *b[i].find("name")) ||
        !(*a[i].find("pattern") == *b[i].find("pattern"))) {
      if (d.patterns++ == 0) d.first = a[i].dump(0) + " vs " + b[i].dump(0);
    } else if (!(a[i] == b[i])) {
      ++d.aps;
    }
  }
  return d;
}

geom::Rect regionOf(const Json& req, const db::Design& d) {
  const Json* r = req.find("region");
  if (r == nullptr) return d.dieArea;
  const auto& it = r->items();
  return {static_cast<geom::Coord>(it[0].asInt()),
          static_cast<geom::Coord>(it[1].asInt()),
          static_cast<geom::Coord>(it[2].asInt()),
          static_cast<geom::Coord>(it[3].asInt())};
}

// --- the ECO phase -----------------------------------------------------------

bool isMutation(const std::string& cmd) {
  return cmd == "move" || cmd == "orient" || cmd == "add" || cmd == "remove";
}

std::string loadLine(const std::string& lef, const std::string& def) {
  Json j = Json::object();
  j.set("cmd", Json("load"));
  j.set("tenant", Json("t"));
  j.set("lef", Json(lef));
  j.set("def", Json(def));
  return j.dump(0);
}

std::string tenantLine(const std::string& cmd) {
  Json j = Json::object();
  j.set("cmd", Json(cmd));
  j.set("tenant", Json("t"));
  return j.dump(0);
}

/// Asks the caller (run.py, on stdin/stdout) to run `pao_cli analyze`
/// child `k` and waits until it has; the answer is the total number of
/// children the run will have. The caller spawns and accounts the
/// children itself: a child's ru_maxrss starts at its spawner's peak RSS
/// (the pre-exec image is the spawner's), which here would be the whole
/// loaded design.
std::size_t runChild(std::size_t k) {
  std::printf("child %zu\n", k);
  std::fflush(stdout);
  std::string answer;
  if (!std::getline(std::cin, answer)) {
    throw std::runtime_error("no answer for child " + std::to_string(k));
  }
  return std::stoul(answer);
}

serve::ServiceConfig serviceConfig() {
  serve::ServiceConfig cfg;
  cfg.numThreads = 1;
  cfg.deterministic = true;
  cfg.slowRequestMicros = 0;
  return cfg;
}

int cmdEco(const std::vector<std::string>& args) {
  if (args.size() < 8) throw std::runtime_error("eco: missing arguments");
  const Workload w = parseWorkload(args[0]);
  const unsigned seed = static_cast<unsigned>(std::stoul(args[1]));
  const std::string& lef = args[2];
  const std::string& def = args[3];
  const std::size_t minOps = std::stoul(args[4]);
  const double seconds = std::stod(args[5]);
  const bool traced = args[6] == "1";
  const std::string outDir = args[7];
  // serve_eco: the load is the workload's set-up, sampled three times in
  // fresh services (a warm shared cache would turn later loads into
  // lookups); elsewhere one load hosts a short ECO tail.
  const int loads = w == Workload::kEco ? 3 : 1;
  // A full report every 100 episodes (about 400 requests) on serve_eco.
  const std::size_t reportEvery = w == Workload::kEco ? 100 : 0;
  const bool fullCheck = w == Workload::kEco;

  Checks checks;
  std::vector<double> loadS;
  std::unique_ptr<serve::Service> service;
  for (int i = 0; i < loads; ++i) {
    service = std::make_unique<serve::Service>(serviceConfig());
    const auto t0 = Clock::now();
    const std::string resp = service->handleLine(loadLine(lef, def));
    loadS.push_back(secondsSince(t0));
    const std::optional<Json> doc = Json::parse(resp);
    if (!doc || !doc->find("ok")->asBool()) {
      throw std::runtime_error("load failed: " + resp);
    }
  }

  Loaded model;
  parseInto(model, lef, def);
  EcoStream stream(model.design, seed, "t", reportEvery);
  const std::uint64_t classBuilds0 =
      obs::Registry::instance().counter("pao.oracle.class_builds").value();

  struct Record {
    std::string line;
    Json result;
  };
  std::vector<Record> records;
  std::map<std::string, std::vector<double>> latMs;   // by command
  std::map<std::string, std::vector<double>> dispMs;  // traced: dispatch
  std::vector<double> protocolUs;
  std::vector<double> dirtyClusters;
  std::vector<double> clusterCount;
  std::size_t attempted = 0;
  std::size_t failedRequests = 0;  // non-ok responses
  std::size_t failedReports = 0;   // reports with failed pins
  std::optional<Json> firstReport;
  double ecoWall = 0;

  const auto request = [&](const std::string& cmd, const std::string& line) {
    std::string resp;
    double ms = 0;
    if (!traced) {
      const auto t0 = Clock::now();
      resp = service->handleLine(line);
      ms = secondsSince(t0) * 1e3;
    } else {
      const auto t0 = Clock::now();
      const serve::Request req = serve::parseRequest(line);
      const auto t1 = Clock::now();
      resp = service->dispatch(req);
      const auto t2 = Clock::now();
      ms = std::chrono::duration<double, std::milli>(t2 - t0).count();
      dispMs[cmd].push_back(
          std::chrono::duration<double, std::milli>(t2 - t1).count());
      const std::optional<Json> doc = Json::parse(resp);
      if (doc && doc->find("result") != nullptr) {
        const auto t3 = Clock::now();
        serve::okLine(*doc->find("result"));
        protocolUs.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count() +
            std::chrono::duration<double, std::micro>(Clock::now() - t3)
                .count());
      }
    }
    ++attempted;
    latMs[cmd].push_back(ms);
    const std::optional<Json> doc = Json::parse(resp);
    const Json* ok = doc ? doc->find("ok") : nullptr;
    if (ok == nullptr || !ok->asBool()) {
      ++failedRequests;
      std::fprintf(stderr, "request failed: %s -> %s\n", line.c_str(),
                   resp.c_str());
      return;
    }
    const Json& result = *doc->find("result");
    if (isMutation(cmd)) {
      dirtyClusters.push_back(result.find("dirtyClusters")->asDouble());
      clusterCount.push_back(result.find("clusterCount")->asDouble());
    }
    if (cmd == "report") {
      const Json& oracle = *result.find("report")->find("oracle");
      if (oracle.find("failedPins")->asInt() > 0) ++failedReports;
      checks.require(oracle.find("dirtyAps")->asInt() == 0,
                     "report has dirty access points");
      if (!firstReport) firstReport = *result.find("report");
    }
    if (fullCheck && cmd != "report") records.push_back({line, result});
  };

  // The pao_cli children and the ECO stream take turns: child k, then the
  // k-th slice of the stream, so both sample the whole run rather than one
  // stretch of it. The caller fixes the child count after the first child;
  // slice k ends once k+1 shares of `seconds` (children included) and of
  // `minOps` are used. The reports before and after the stream are the
  // checks' and count in report latency, not in the stream's throughput,
  // whose mix then does not depend on the stream's length.
  const auto start = Clock::now();
  request("report", tenantLine("report"));
  std::size_t done = 0;
  std::size_t children = 1;
  for (std::size_t k = 0; k < children; ++k) {
    children = std::max<std::size_t>(runChild(k), 1);
    const double share = static_cast<double>(k + 1) / children;
    const auto t0 = Clock::now();
    while (done < minOps * share || secondsSince(start) < seconds * share) {
      const EcoStream::Op op = stream.next();
      request(op.cmd, op.line);
      ++done;
    }
    ecoWall += secondsSince(t0);
  }
  request("report", tenantLine("report"));
  const std::uint64_t classBuilds =
      obs::Registry::instance().counter("pao.oracle.class_builds").value() -
      classBuilds0;

  // Batch ≡ service at load: the first report against the pao_cli runs.
  if (firstReport) {
    std::vector<std::string> cliReports;
    for (std::size_t k = 0; k < children; ++k) {
      cliReports.push_back(outDir + "/cli" + std::to_string(k) + ".json");
    }
    checkCliReports(cliReports, *firstReport, {"design", "config", "oracle"},
                    "service report at load", checks);
  } else {
    checks.errors.push_back("no report answered");
  }

  std::size_t batchApMismatches = 0;
  if (fullCheck) {
    // Every query reply against a shadow session replaying the same
    // mutations; then the final state against a fresh batch run on the
    // saved DEF.
    const std::string fullResp = service->handleLine(tenantLine("query"));
    const std::string savedDef = outDir + "/eco_saved.def";
    Json save = Json::parse(tenantLine("save")).value();
    save.set("def", Json(savedDef));
    const std::optional<Json> saved = Json::parse(
        service->handleLine(save.dump(0)));
    const std::optional<Json> full = Json::parse(fullResp);
    checks.require(full && full->find("ok")->asBool() && saved &&
                       saved->find("ok")->asBool(),
                   "final query/save failed");

    core::OracleSession shadow(model.design, analyzeConfig());
    std::size_t mismatches = 0;
    for (const Record& r : records) {
      const Json req = Json::parse(r.line).value();
      const std::string cmd = req.find("cmd")->asString();
      if (isMutation(cmd)) {
        applyToShadow(shadow, model.lib, req);
      } else if (cmd == "query") {
        if (!(expectedQuery(shadow, regionOf(req, shadow.design())) ==
              r.result)) {
          ++mismatches;
        }
      }
    }
    checks.require(mismatches == 0,
                   std::to_string(mismatches) +
                       " query replies differ from the session state");
    if (full) {
      const Json& fullResult = *full->find("result");
      checks.require(
          expectedQuery(shadow, shadow.design().dieArea) == fullResult,
          "full query differs from the shadow session");
      Loaded batch;
      parseInto(batch, lef, savedDef);
      const core::OracleResult res =
          core::PinAccessOracle(batch.design, analyzeConfig()).run();
      const BatchDiff diff = diffAgainstBatch(
          fullResult,
          expectedQuery(batch.design, res, batch.design.dieArea));
      if (diff.patterns != 0) {
        // Tells a session defect from a DEF round-trip one: the same batch
        // run on the session's own in-memory design.
        const core::OracleResult mem =
            core::PinAccessOracle(shadow.design(), analyzeConfig()).run();
        const BatchDiff memDiff = diffAgainstBatch(
            fullResult,
            expectedQuery(shadow.design(), mem, shadow.design().dieArea));
        checks.errors.push_back(
            std::to_string(diff.patterns) +
            " session patterns differ from a fresh batch run on the saved "
            "DEF (" + std::to_string(memDiff.patterns) +
            " from one on the in-memory design); first: " + diff.first);
      }
      batchApMismatches = diff.aps;
    }
  }

  Json lat = Json::object();
  for (const auto& [cmd, v] : latMs) lat.set(cmd, numbers(v));
  Json disp = Json::object();
  for (const auto& [cmd, v] : dispMs) disp.set(cmd, numbers(v));
  const core::AccessCache& cache = service->cache();
  const double lookups = static_cast<double>(cache.hits() + cache.misses());
  Json out = Json::object();
  out.set("load_s", numbers(loadS));
  out.set("latency_ms", std::move(lat));
  out.set("stream_requests", Json(done));
  out.set("stream_wall_s", Json(ecoWall));
  out.set("dispatch_ms", std::move(disp));
  out.set("protocol_us", numbers(protocolUs));
  out.set("dirty_clusters", numbers(dirtyClusters));
  out.set("cluster_count", numbers(clusterCount));
  out.set("class_builds", Json(static_cast<double>(classBuilds)));
  out.set("cache_hit_frac",
          Json(lookups > 0 ? static_cast<double>(cache.hits()) / lookups : 0));
  out.set("batch_ap_mismatches", Json(batchApMismatches));
  out.set("attempted", Json(attempted));
  out.set("failed_requests", Json(failedRequests));
  out.set("failed_reports", Json(failedReports));
  out.set("errors", checks.json());
  std::printf("%s\n", out.dump(0).c_str());
  return 0;
}

int cmdGen(const std::vector<std::string>& args) {
  if (args.size() < 4) throw std::runtime_error("gen: missing arguments");
  const Workload w = parseWorkload(args[0]);
  const unsigned seed = static_cast<unsigned>(std::stoul(args[1]));
  const int reps = std::max(1, std::stoi(args[3]));
  std::vector<double> setup;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    writeInputs(w, seed, args[2]);
    setup.push_back(secondsSince(t0));
  }
  Json out = Json::object();
  out.set("setup_s", numbers(setup));
  std::printf("%s\n", out.dump(0).c_str());
  return 0;
}

// --- self-test ---------------------------------------------------------------

int cmdSelftest() {
  Checks checks;
  const auto tcOf = [](unsigned seed) {
    benchgen::TestcaseSpec spec = benchgen::mixedSpec();
    spec.seed = seed;
    return benchgen::generate(spec, 0.3);
  };
  const benchgen::Testcase tc = tcOf(1);
  const std::size_t kOps = 1500;

  // Determinism: same seed → same stream; another seed → another stream.
  std::vector<std::string> a;
  std::vector<std::string> b;
  std::vector<std::string> c;
  {
    EcoStream s1(*tc.design, 7, "t");
    EcoStream s2(*tc.design, 7, "t");
    EcoStream s3(*tc.design, 8, "t");
    for (std::size_t i = 0; i < kOps; ++i) {
      a.push_back(s1.next().line);
      b.push_back(s2.next().line);
      c.push_back(s3.next().line);
    }
  }
  checks.require(a == b, "ECO stream differs between runs of one seed");
  checks.require(a != c, "ECO stream ignores its seed");

  // Legality: applied to the design, no move or add overlaps another
  // instance, and the placement check finds no violation involving an
  // instance the stream touched.
  db::Design design = *tc.design;
  design.buildInstanceIndex();
  const std::size_t before = db::checkPlacement(design).size();
  EcoStream stream(design, 7, "t");
  std::map<std::string, std::size_t> kinds;
  std::size_t overlaps = 0;
  for (std::size_t i = 0; i < kOps; ++i) {
    const Json req = Json::parse(stream.next().line).value();
    const std::string cmd = req.find("cmd")->asString();
    ++kinds[cmd];
    int idx = -1;
    if (cmd == "add") {
      db::Instance inst;
      inst.name = req.find("name")->asString();
      inst.master = tc.lib->findMaster(req.find("master")->asString());
      inst.origin = {static_cast<geom::Coord>(req.find("x")->asInt()),
                     static_cast<geom::Coord>(req.find("y")->asInt())};
      inst.orient = geom::orientFromString(req.find("orient")->asString());
      idx = design.addInstance(std::move(inst));
    } else if (cmd == "move") {
      idx = design.findInstance(req.find("inst")->asString());
      design.moveInstance(
          idx, {static_cast<geom::Coord>(req.find("x")->asInt()),
                static_cast<geom::Coord>(req.find("y")->asInt())});
    } else if (cmd == "orient") {
      design.setInstanceOrient(
          design.findInstance(req.find("inst")->asString()),
          geom::orientFromString(req.find("orient")->asString()));
    } else if (cmd == "remove") {
      design.removeInstance(design.findInstance(req.find("inst")->asString()));
    }
    if (idx < 0) continue;
    const geom::Rect box = design.instances[idx].bbox();
    for (std::size_t j = 0; j < design.instances.size(); ++j) {
      if (static_cast<int>(j) != idx &&
          design.instances[j].bbox().overlaps(box)) {
        ++overlaps;
      }
    }
  }
  checks.require(overlaps == 0, std::to_string(overlaps) +
                                    " ECO placements overlap an instance");
  const std::vector<std::string> touched = stream.touchedNames();
  const std::set<std::string> touchedSet(touched.begin(), touched.end());
  const std::vector<db::PlacementViolation> after =
      db::checkPlacement(design);
  std::size_t touchedViolations = 0;
  for (const db::PlacementViolation& v : after) {
    for (const int inst : {v.instA, v.instB}) {
      if (inst >= 0 && touchedSet.count(design.instances[inst].name) != 0) {
        ++touchedViolations;
      }
    }
  }
  checks.require(touchedViolations == 0,
                 std::to_string(touchedViolations) +
                     " placement violations involve ECO-touched instances");
  checks.require(after.size() <= before,
                 "the ECO stream added placement violations");
  for (const char* k : {"move", "orient", "add", "remove", "query"}) {
    checks.require(kinds[k] > 0, std::string("ECO stream never sends ") + k);
  }

  // Digest stability: two oracle runs agree; a changed choice shows.
  const core::OracleResult r1 =
      core::PinAccessOracle(*tc.design, analyzeConfig()).run();
  const core::OracleResult r2 =
      core::PinAccessOracle(*tc.design, analyzeConfig()).run();
  const std::uint64_t d1 = chosenApDigest(*tc.design, r1);
  checks.require(d1 == chosenApDigest(*tc.design, r2),
                 "digest differs between identical runs");
  core::OracleResult changed = r1;
  bool flipped = false;
  for (std::size_t i = 0; i < changed.chosenPattern.size() && !flipped; ++i) {
    const int cls = changed.unique.classOf[i];
    if (cls < 0 || changed.classes[cls].patterns.size() < 2) continue;
    changed.chosenPattern[i] = changed.chosenPattern[i] == 0 ? 1 : 0;
    flipped = true;
  }
  checks.require(flipped, "no instance with two patterns to flip");
  checks.require(chosenApDigest(*tc.design, changed) != d1,
                 "digest ignores a changed pattern choice");

  Json counts = Json::object();
  for (const auto& [k, n] : kinds) counts.set(k, Json(n));
  Json out = Json::object();
  out.set("ops", Json(kOps));
  out.set("kinds", std::move(counts));
  out.set("placement_violations_before", Json(before));
  out.set("placement_violations_after", Json(after.size()));
  out.set("errors", checks.json());
  std::printf("%s\n", out.dump(0).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: pao_e2e gen|inproc|eco|selftest ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "gen") return cmdGen(args);
    if (cmd == "inproc") return cmdInproc(args);
    if (cmd == "eco") return cmdEco(args);
    if (cmd == "selftest") return cmdSelftest();
    std::fprintf(stderr, "unknown subcommand '%s'\n", cmd.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pao_e2e %s: %s\n", cmd.c_str(), e.what());
  }
  return 2;
}
