// report_check — schema validation for observability artifacts.
//
//   report_check report <file.json>            validate a pao-report/1 doc
//   report_check trace <file.json> [minSpans] [--require-worker]
//                                              validate a Chrome trace
//   report_check compare <a.json> <b.json> [--ignore KEY ...]
//                                              byte-compare two reports
//                                              after stripping timings (and
//                                              any --ignore top-level keys)
//   report_check metrics <file.json>           validate a metrics snapshot
//                                              (report section or pao_serve
//                                              metrics response)
//   report_check counter-le <file.json> <a> <b>
//                                              both counters are in the
//                                              report's metrics snapshot and
//                                              a <= b
//   report_check sarif <file.json>             validate a SARIF 2.1.0 log
//                                              (as emitted by pao_lint
//                                              --format sarif)
//   report_check profile <file.json>           validate a pao-report/2 doc
//                                              with a "profile" section and
//                                              print the critical path,
//                                              headroom and per-worker
//                                              utilization
//   report_check ingest <file.json>            validate a pao-report/2 doc
//                                              with an "ingest" section and
//                                              check the throughput and
//                                              peak-RSS figures are positive
//
// Exit 0 = valid / equal, 1 = invalid / different, 2 = usage or I/O error.
// Diagnostics go to stderr; nothing is written to stdout.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "flag_values.hpp"
#include "obs/report.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  report_check report <file.json>\n"
               "  report_check trace <file.json> [minSpans]"
               " [--require-worker]\n"
               "  report_check compare <a.json> <b.json> [--ignore KEY ...]\n"
               "  report_check metrics <file.json>\n"
               "  report_check counter-le <file.json> <a> <b>\n"
               "  report_check sarif <file.json>\n"
               "  report_check profile <file.json>\n"
               "  report_check ingest <file.json>\n");
  return 2;
}

bool slurp(const char* path, std::string& out) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return false;
  }
  std::stringstream ss;
  ss << f.rdbuf();
  out = ss.str();
  return true;
}

bool parseFile(const char* path, pao::obs::Json& out) {
  std::string text;
  if (!slurp(path, text)) return false;
  std::string error;
  const auto doc = pao::obs::Json::parse(text, &error);
  if (!doc) {
    std::fprintf(stderr, "%s: malformed JSON: %s\n", path, error.c_str());
    return false;
  }
  out = *doc;
  return true;
}

int cmdReport(const char* path) {
  pao::obs::Json doc;
  if (!parseFile(path, doc)) return 2;
  std::string error;
  if (!pao::obs::validateReport(doc, &error)) {
    std::fprintf(stderr, "%s: invalid report: %s\n", path, error.c_str());
    return 1;
  }
  std::fprintf(stderr, "%s: valid %s\n", path,
               doc.find("schema")->asString().c_str());
  return 0;
}

int cmdTrace(int argc, char** argv) {
  const char* path = argv[2];
  int minSpans = 1;
  bool requireWorker = false;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--require-worker") == 0) {
      requireWorker = true;
    } else if (!pao::tools::parseIntFlag("minSpans", argv[i], 0,
                                         pao::tools::kIntMax, minSpans)) {
      return 2;
    }
  }
  pao::obs::Json doc;
  if (!parseFile(path, doc)) return 2;
  std::string error;
  if (!pao::obs::validateTrace(doc, minSpans, requireWorker, &error)) {
    std::fprintf(stderr, "%s: invalid trace: %s\n", path, error.c_str());
    return 1;
  }
  std::fprintf(stderr, "%s: valid trace (%zu events)\n", path,
               doc.find("traceEvents")->items().size());
  return 0;
}

/// Top-level keys named with --ignore are dropped before normalization so
/// reports from different producers (e.g. pao_serve vs pao_cli, whose "tool"
/// strings legitimately differ) can still be byte-compared.
pao::obs::Json dropKeys(const pao::obs::Json& doc,
                        const std::vector<std::string>& ignore) {
  if (!doc.isObject() || ignore.empty()) return doc;
  pao::obs::Json out = pao::obs::Json::object();
  for (const auto& [key, value] : doc.members()) {
    if (std::find(ignore.begin(), ignore.end(), key) == ignore.end()) {
      out[key] = value;
    }
  }
  return out;
}

int cmdCompare(const char* pathA, const char* pathB,
               const std::vector<std::string>& ignore) {
  pao::obs::Json a;
  pao::obs::Json b;
  if (!parseFile(pathA, a) || !parseFile(pathB, b)) return 2;
  const std::string na =
      pao::obs::normalizeForCompare(dropKeys(a, ignore)).dump();
  const std::string nb =
      pao::obs::normalizeForCompare(dropKeys(b, ignore)).dump();
  if (na != nb) {
    std::fprintf(stderr,
                 "%s and %s differ beyond timings (%zu vs %zu normalized "
                 "bytes)\n",
                 pathA, pathB, na.size(), nb.size());
    return 1;
  }
  std::fprintf(stderr, "%s and %s are equivalent modulo timings\n", pathA,
               pathB);
  return 0;
}

/// Accepts either a bare Registry snapshot or a pao_serve metrics response
/// (where the snapshot lives under result.metrics.metrics or metrics).
int cmdMetrics(const char* path) {
  pao::obs::Json doc;
  if (!parseFile(path, doc)) return 2;
  const pao::obs::Json* snap = &doc;
  if (const pao::obs::Json* result = doc.find("result")) snap = result;
  if (const pao::obs::Json* inner = snap->find("metrics")) snap = inner;
  if (const pao::obs::Json* inner = snap->find("metrics")) snap = inner;
  std::string error;
  if (!pao::obs::validateMetricsSnapshot(*snap, &error)) {
    std::fprintf(stderr, "%s: invalid metrics snapshot: %s\n", path,
                 error.c_str());
    return 1;
  }
  std::fprintf(stderr, "%s: valid metrics snapshot (%zu counters)\n", path,
               snap->find("counters")->members().size());
  return 0;
}

/// Work-counter ordering gate: counters `a` and `b` of the report's metrics
/// snapshot both exist and a <= b.
int cmdCounterLe(const char* path, const char* a, const char* b) {
  pao::obs::Json doc;
  if (!parseFile(path, doc)) return 2;
  const pao::obs::Json* metrics = doc.find("metrics");
  const pao::obs::Json* counters =
      metrics != nullptr ? metrics->find("counters") : nullptr;
  const pao::obs::Json* va = counters != nullptr ? counters->find(a) : nullptr;
  const pao::obs::Json* vb = counters != nullptr ? counters->find(b) : nullptr;
  if (va == nullptr || vb == nullptr || !va->isNumber() || !vb->isNumber()) {
    std::fprintf(stderr, "%s: counter %s missing from the metrics snapshot\n",
                 path, va == nullptr ? a : b);
    return 1;
  }
  if (va->asDouble() > vb->asDouble()) {
    std::fprintf(stderr, "%s: %s = %.0f exceeds %s = %.0f\n", path, a,
                 va->asDouble(), b, vb->asDouble());
    return 1;
  }
  std::fprintf(stderr, "%s: %s = %.0f <= %s = %.0f\n", path, a,
               va->asDouble(), b, vb->asDouble());
  return 0;
}

/// Structural validation of a SARIF 2.1.0 log: version, a non-empty runs
/// array whose first run names a tool driver with a rule catalog, and every
/// result carrying ruleId, a message text, and at least one physical
/// location with an artifact URI and a positive startLine.
int cmdSarif(const char* path) {
  pao::obs::Json doc;
  if (!parseFile(path, doc)) return 2;
  const auto fail = [path](const char* what) {
    std::fprintf(stderr, "%s: invalid SARIF: %s\n", path, what);
    return 1;
  };
  const pao::obs::Json* version = doc.find("version");
  if (version == nullptr || !version->isString() ||
      version->asString() != "2.1.0") {
    return fail("version must be \"2.1.0\"");
  }
  const pao::obs::Json* runs = doc.find("runs");
  if (runs == nullptr || !runs->isArray() || runs->items().empty()) {
    return fail("runs must be a non-empty array");
  }
  const pao::obs::Json& run = runs->items().front();
  const pao::obs::Json* tool = run.find("tool");
  const pao::obs::Json* driver = tool != nullptr ? tool->find("driver") : nullptr;
  const pao::obs::Json* name = driver != nullptr ? driver->find("name") : nullptr;
  if (name == nullptr || !name->isString() || name->asString().empty()) {
    return fail("runs[0].tool.driver.name missing");
  }
  const pao::obs::Json* rules = driver->find("rules");
  if (rules == nullptr || !rules->isArray() || rules->items().empty()) {
    return fail("runs[0].tool.driver.rules missing or empty");
  }
  for (const pao::obs::Json& rule : rules->items()) {
    const pao::obs::Json* id = rule.find("id");
    if (id == nullptr || !id->isString() || id->asString().empty()) {
      return fail("every rule needs a non-empty id");
    }
  }
  const pao::obs::Json* results = run.find("results");
  if (results == nullptr || !results->isArray()) {
    return fail("runs[0].results must be an array");
  }
  for (const pao::obs::Json& r : results->items()) {
    const pao::obs::Json* ruleId = r.find("ruleId");
    if (ruleId == nullptr || !ruleId->isString() ||
        ruleId->asString().empty()) {
      return fail("every result needs a ruleId");
    }
    const pao::obs::Json* message = r.find("message");
    const pao::obs::Json* text =
        message != nullptr ? message->find("text") : nullptr;
    if (text == nullptr || !text->isString() || text->asString().empty()) {
      return fail("every result needs message.text");
    }
    const pao::obs::Json* locations = r.find("locations");
    if (locations == nullptr || !locations->isArray() ||
        locations->items().empty()) {
      return fail("every result needs locations");
    }
    const pao::obs::Json* phys =
        locations->items().front().find("physicalLocation");
    const pao::obs::Json* artifact =
        phys != nullptr ? phys->find("artifactLocation") : nullptr;
    const pao::obs::Json* uri =
        artifact != nullptr ? artifact->find("uri") : nullptr;
    if (uri == nullptr || !uri->isString() || uri->asString().empty()) {
      return fail("every result needs physicalLocation.artifactLocation.uri");
    }
    const pao::obs::Json* region = phys->find("region");
    const pao::obs::Json* startLine =
        region != nullptr ? region->find("startLine") : nullptr;
    if (startLine == nullptr || !startLine->isNumber() ||
        startLine->asDouble() < 1) {
      return fail("every result needs region.startLine >= 1");
    }
  }
  std::fprintf(stderr, "%s: valid SARIF 2.1.0 (%zu rules, %zu results)\n",
               path, rules->items().size(), results->items().size());
  return 0;
}

/// Validates a pao-report/2 document carrying a "profile" section (the
/// section shape itself is checked by validateReport -> validateProfileSection)
/// and prints the measured critical path and parallelism summary.
int cmdProfile(const char* path) {
  pao::obs::Json doc;
  if (!parseFile(path, doc)) return 2;
  std::string error;
  if (!pao::obs::validateReport(doc, &error)) {
    std::fprintf(stderr, "%s: invalid report: %s\n", path, error.c_str());
    return 1;
  }
  const pao::obs::Json* profile = doc.find("profile");
  if (profile == nullptr) {
    std::fprintf(stderr, "%s: report carries no 'profile' section\n", path);
    return 1;
  }
  const auto num = [&](const char* key) {
    return profile->find(key)->asDouble();
  };
  const pao::obs::Json& cp = *profile->find("criticalPath");
  std::string cpIds;
  for (const pao::obs::Json& id : cp.items()) {
    if (!cpIds.empty()) cpIds += " -> ";
    cpIds += std::to_string(id.asInt());
  }
  std::fprintf(stderr, "%s: valid profile\n", path);
  std::fprintf(stderr, "  jobs              : %.0f over %.0f worker(s), "
                       "%.0f steal(s)\n",
               num("jobs"), num("workers"), num("steals"));
  std::fprintf(stderr, "  wall              : %.0f us\n", num("wallMicros"));
  std::fprintf(stderr, "  total node time   : %.0f us\n",
               num("totalMicros"));
  std::fprintf(stderr, "  critical path     : %.0f us, %zu node(s): %s\n",
               num("criticalPathMicros"), cp.items().size(), cpIds.c_str());
  std::fprintf(stderr, "  headroom          : %.2f\n", num("headroom"));
  std::fprintf(stderr, "  speedup           : %.2f\n", num("speedup"));
  const pao::obs::Json& perWorker = *profile->find("perWorker");
  std::fprintf(stderr, "  %-8s %12s %12s %8s %8s %8s\n", "worker", "busy us",
               "idle us", "util", "nodes", "steals");
  for (const pao::obs::Json& w : perWorker.items()) {
    std::fprintf(stderr, "  %-8lld %12.0f %12.0f %8.2f %8lld %8lld\n",
                 w.find("worker")->asInt(), w.find("busyMicros")->asDouble(),
                 w.find("idleMicros")->asDouble(),
                 w.find("utilization")->asDouble(), w.find("nodes")->asInt(),
                 w.find("steals")->asInt());
  }
  return 0;
}

/// Validates a pao-report/2 document carrying an "ingest" section (shape
/// checked by validateReport) and additionally requires the machine-valued
/// figures — throughput and peak RSS — to be present and positive, which
/// validateReport deliberately does not: those keys are stripped by
/// normalizeForCompare, so this is the one gate that looks at them.
int cmdIngest(const char* path) {
  pao::obs::Json doc;
  if (!parseFile(path, doc)) return 2;
  std::string error;
  if (!pao::obs::validateReport(doc, &error)) {
    std::fprintf(stderr, "%s: invalid report: %s\n", path, error.c_str());
    return 1;
  }
  const pao::obs::Json* ingest = doc.find("ingest");
  if (ingest == nullptr) {
    std::fprintf(stderr, "%s: report carries no 'ingest' section\n", path);
    return 1;
  }
  for (const char* key :
       {"bytes", "components", "mbPerSec", "instsPerSec", "peakRssBytes"}) {
    const pao::obs::Json* v = ingest->find(key);
    if (v == nullptr || !v->isNumber() || v->asDouble() <= 0) {
      std::fprintf(stderr, "%s: ingest.%s missing or not positive\n", path,
                   key);
      return 1;
    }
  }
  const auto num = [&](const char* key) {
    return ingest->find(key)->asDouble();
  };
  std::fprintf(stderr, "%s: valid ingest\n", path);
  std::fprintf(stderr,
               "  input             : %.1f MB DEF in %.0f chunk(s)%s\n",
               num("bytes") / (1024.0 * 1024.0), num("chunks"),
               ingest->find("mapped")->asBool() ? " (mmap)" : "");
  std::fprintf(stderr, "  entities          : %.0f components, %.0f nets\n",
               num("components"), num("nets"));
  std::fprintf(stderr, "  throughput        : %.1f MB/s, %.0f insts/s\n",
               num("mbPerSec"), num("instsPerSec"));
  std::fprintf(stderr, "  peak RSS          : %.1f MB\n",
               num("peakRssBytes") / (1024.0 * 1024.0));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  if (cmd == "report" && argc == 3) return cmdReport(argv[2]);
  if (cmd == "profile" && argc == 3) return cmdProfile(argv[2]);
  if (cmd == "ingest" && argc == 3) return cmdIngest(argv[2]);
  if (cmd == "sarif" && argc == 3) return cmdSarif(argv[2]);
  if (cmd == "trace") return cmdTrace(argc, argv);
  if (cmd == "metrics" && argc == 3) return cmdMetrics(argv[2]);
  if (cmd == "counter-le" && argc == 5) {
    return cmdCounterLe(argv[2], argv[3], argv[4]);
  }
  if (cmd == "compare" && argc >= 4) {
    std::vector<std::string> ignore;
    for (int i = 4; i < argc; ++i) {
      if (std::strcmp(argv[i], "--ignore") == 0 && i + 1 < argc) {
        ignore.push_back(argv[++i]);
      } else {
        return usage();
      }
    }
    return cmdCompare(argv[2], argv[3], ignore);
  }
  return usage();
}
