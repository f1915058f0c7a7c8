// Versioned machine-readable run report ("schema": "pao-report/1").
//
// One document unifies what used to live in ad-hoc structs and free-form
// prints: oracle timings (per-step cpu + wall), session dirty-cluster
// stats, cache hit/miss, DRC violation counts, router stats, benchmark
// results — plus a full metrics-registry snapshot. Producers (pao_cli,
// bench_common) create a RunReport, fill named sections with arbitrary
// Json, call captureMetrics(), and write the file.
//
// Schema v1 layout (all sections optional except schema/tool/env):
//   {
//     "schema": "pao-report/1",
//     "tool":   "pao_cli analyze" | "pao_cli route" | "bench_fig3..." | ...,
//     "env":    {"hwThreads": N, "gitSha": "...", ...},
//     "design" | "config" | "args" | "timings" | "oracle" | "session" |
//     "cache" | "drc" | "router" | "bench" | "notes": {...},
//     "degraded": [{"kind": "...", "cls": N, "detail": "..."}, ...],
//     "metrics": Registry::snapshot()
//   }
//
// Determinism contract: validateReport() checks structure;
// normalizeForCompare() strips every timing-valued key so two reports from
// identical work at different --threads compare byte-identical.
#pragma once

#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace pao::obs {

inline constexpr std::string_view kReportSchema = "pao-report/1";
/// Schema v2 = v1 plus an optional "profile" section (job-graph profile,
/// see obs/profile.hpp). Producers opt in by overwriting the "schema" key;
/// validateReport accepts both and rejects "profile" under v1.
inline constexpr std::string_view kReportSchemaV2 = "pao-report/2";

class RunReport {
 public:
  /// `tool` identifies the producer, e.g. "pao_cli analyze".
  explicit RunReport(std::string_view tool);

  /// Find-or-create a top-level section ("oracle", "drc", ...).
  Json& section(std::string_view name) { return doc_[name]; }

  /// Stores Registry::instance().snapshot() under "metrics".
  void captureMetrics();

  const Json& doc() const { return doc_; }
  Json& doc() { return doc_; }

  /// Pretty-printed JSON document.
  std::string dump() const { return doc_.dump(1); }

  /// Writes dump() to `path`; "-" writes to stdout. Returns false on I/O
  /// error (sets *error when given).
  bool writeFile(const std::string& path, std::string* error = nullptr) const;

 private:
  Json doc_;
};

/// Environment info shared by every report: {"hwThreads": N, "gitSha": ...}.
Json environmentJson();

/// Structural validation of a pao-report/1 document: schema/tool/env
/// present and well-typed, only known top-level keys, metrics section (when
/// present) shaped like a Registry snapshot. Returns false and sets *error.
bool validateReport(const Json& doc, std::string* error = nullptr);

/// Structural validation of a metrics-registry snapshot (the "metrics"
/// section of a report, or the `metrics` field of a pao_serve metrics
/// response): counters/gauges/histograms objects, integer counters in
/// canonical sort order, histograms with len(buckets) == len(bounds)+1.
bool validateMetricsSnapshot(const Json& metrics, std::string* error = nullptr);

/// Recursively strips timing-valued keys ("timings", "threads", "hwThreads",
/// "seconds", any key ending in "Seconds" or "Micros") so reports from
/// identical work at different thread counts compare byte-identical. Inside
/// a "profile" section the schedule-valued keys ("workers", "steals",
/// "headroom", "speedup", "perWorker", "queue") are stripped too — what
/// survives is the critical-path *structure*, which two serial runs of the
/// same graph reproduce.
Json normalizeForCompare(const Json& doc);

/// Validation for an exported Chrome trace: well-formed traceEvents with
/// ph:"X" spans, at least `minSpans` distinct span names, and (when
/// `requireWorker`) at least one "<parent>.worker" span nested in time
/// within a same-named parent span. Returns false and sets *error.
bool validateTrace(const Json& doc, int minSpans, bool requireWorker,
                   std::string* error = nullptr);

}  // namespace pao::obs
