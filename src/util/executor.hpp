// Shared parallel executor for the library's batch workloads (the paper's
// "support of multi-threading" future-work item). One primitive —
// parallelFor — runs n independent index-addressed tasks over a bounded
// worker pool with semantics chosen so callers stay deterministic:
//
//   * Result ordering is the caller's: tasks write into slot i of a
//     pre-sized output, so the result sequence is independent of the
//     schedule. parallelFor itself never reorders anything.
//   * Every index is attempted even after a failure, and the exception of
//     the LOWEST failing index is rethrown — identical to what a caller
//     observes serially when each task's failure is recorded and the first
//     one reported, regardless of thread count or timing.
//   * Nested calls degrade to serial on the calling worker instead of
//     spawning threads-squared workers, so library layers may parallelize
//     independently (e.g. a parallel DRC shard calling a helper that is
//     itself parallel elsewhere).
#pragma once

#include <cstddef>
#include <functional>

namespace pao::util {

/// Worker count a request resolves to: n >= 1 is taken as-is; n <= 0 means
/// std::thread::hardware_concurrency (at least 1).
int resolveThreads(int numThreads);

/// Largest explicit worker count the command-line tools accept. Every
/// worker is an OS thread, so a value like `--threads 100000` must fail up
/// front rather than start one thread per job.
constexpr int kMaxThreads = 256;

/// Parses a command-line value that must be a whole decimal integer in
/// [lo, hi]. Returns false, leaving `out` untouched, on anything else
/// (empty, blanks, trailing characters, out of range).
bool parseInteger(const char* text, long long lo, long long hi,
                  long long& out);

/// Parses a command-line value that must be a finite decimal number >= 0
/// ("2", "0.5", "1e-3"); same failure contract as parseInteger.
bool parseNonNegative(const char* text, double& out);

/// Invokes fn(i) for every i in [0, n) across up to resolveThreads(numThreads)
/// workers (the calling thread is one of them). Tasks must be independent;
/// scheduling is dynamic (work-stealing via a shared atomic cursor) so uneven
/// task costs balance. See the header comment for the determinism contract.
void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn,
                 int numThreads);

}  // namespace pao::util
