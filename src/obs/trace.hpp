// Scoped tracer — RAII spans recorded into per-thread ring buffers and
// exported as Chrome/Perfetto trace_event JSON (load the file at
// https://ui.perfetto.dev or chrome://tracing).
//
// Usage:
//   PAO_TRACE_SCOPE("oracle.pipeline");
//   PAO_TRACE_SCOPE("step3.cluster_dp",
//                   Json::object().set("cluster", Json(42)));
//
// The tracer is disabled by default; `pao_cli --trace-out t.json` (or a test)
// calls Tracer::instance().enable() before the run and exportChromeTrace()
// after. A TraceScope constructed while the tracer is disabled records
// nothing, and with -DPAO_OBS=OFF the macro compiles out entirely.
//
// Span nesting across parallelFor: each thread keeps a span-name stack;
// util::parallelFor captures the submitting thread's innermost span name and
// opens "<parent>.worker" spans on the draining threads, so worker activity
// groups under its phase in the Perfetto UI (distinct tid rows, related by
// name and containment in time).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/enabled.hpp"
#include "obs/json.hpp"

namespace pao::obs {

struct TraceEvent {
  std::string name;
  Json args;          // null when the span carries no tags
  std::int64_t tsUs;  // start, microseconds since tracer enable
  std::int64_t durUs;
  int tid;
  // Defaults describe an ordinary span. obs/profile.cpp overrides them to
  // place job-graph nodes on their own per-worker tracks (pid 2) and to
  // draw dependency arrows with flow events ('s' start / 'f' finish).
  int pid = 1;
  char ph = 'X';
  std::uint64_t flowId = 0;  // pairs an 's' with its 'f'; 0 = not a flow
};

class Tracer {
 public:
  static Tracer& instance();

  /// Starts a capture. Clears previously collected events. `ringCap` bounds
  /// the number of retained events per thread (oldest overwritten first).
  void enable(std::size_t ringCap = std::size_t{1} << 16);
  void disable();
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// Microseconds since enable() (0 when disabled).
  std::int64_t nowUs() const;

  /// Records a completed span on the calling thread's ring buffer.
  void record(std::string name, Json args, std::int64_t tsUs,
              std::int64_t durUs);

  /// Records a pre-built event verbatim — tid/pid/ph/flowId are kept as
  /// given rather than stamped with the calling thread's tid. Used by
  /// obs/profile.cpp to replay a job-graph capture onto worker tracks.
  void recordEvent(TraceEvent ev);

  /// Innermost open span name on the calling thread ("" when none). Used by
  /// util::parallelFor to name worker spans after their submitting phase.
  static std::string currentSpanName();

  /// All retained events, sorted by (tsUs, tid) for deterministic export.
  std::vector<TraceEvent> collect() const;
  std::uint64_t eventCount() const;
  std::uint64_t droppedEvents() const;

  /// Serializes collected events as a Chrome trace_event JSON document:
  /// {"traceEvents":[{"name",...,"ph":"X","ts","dur","pid":1,"tid","args"}],
  ///  "displayTimeUnit":"ms"}
  std::string exportChromeTrace() const;

  // Span-name stack maintenance (used by TraceScope; public so the executor
  // integration can pair push/pop around worker bodies).
  static void pushSpanName(const std::string& name);
  static void popSpanName();

 private:
  Tracer() = default;
  struct ThreadBuffer;
  ThreadBuffer& localBuffer();

  std::atomic<bool> enabled_{false};
  std::int64_t epochNs_ = 0;
  std::size_t ringCap_ = std::size_t{1} << 16;
  mutable std::mutex mu_;  // guards buffers_ (registration + collect)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::atomic<int> nextTid_{0};
};

/// RAII span. Measures wall time from construction to destruction and
/// records one "ph":"X" event if the tracer was enabled at construction.
class TraceScope {
 public:
  explicit TraceScope(const char* name) {
    if (Tracer::instance().enabled()) begin(name, Json());
  }
  TraceScope(const char* name, Json args) {
    if (Tracer::instance().enabled()) begin(name, std::move(args));
  }
  TraceScope(std::string name, Json args) {
    if (Tracer::instance().enabled()) beginStr(std::move(name), std::move(args));
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
  ~TraceScope() {
    if (active_) end();
  }

 private:
  void begin(const char* name, Json args) { beginStr(name, std::move(args)); }
  void beginStr(std::string name, Json args);
  void end();

  bool active_ = false;
  std::string name_;
  Json args_;
  std::int64_t tsUs_ = 0;
};

}  // namespace pao::obs

#if PAO_OBS_ENABLED

#define PAO_OBS_CONCAT_INNER(a, b) a##b
#define PAO_OBS_CONCAT(a, b) PAO_OBS_CONCAT_INNER(a, b)
/// PAO_TRACE_SCOPE("phase.name") or PAO_TRACE_SCOPE("phase.name", argsJson)
#define PAO_TRACE_SCOPE(...)                                 \
  ::pao::obs::TraceScope PAO_OBS_CONCAT(pao_obs_trace_scope_, \
                                        __LINE__)(__VA_ARGS__)

#else

#define PAO_TRACE_SCOPE(...) \
  do {                       \
  } while (0)

#endif  // PAO_OBS_ENABLED
