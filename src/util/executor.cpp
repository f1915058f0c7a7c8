#include "util/executor.hpp"

#include <charconv>
#include <cmath>
#include <cstring>
#include <thread>

#include "util/jobs.hpp"

namespace pao::util {

int resolveThreads(int numThreads) {
  if (numThreads >= 1) return numThreads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

bool parseInteger(const char* text, long long lo, long long hi,
                  long long& out) {
  const char* end = text + std::strlen(text);
  long long value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || value < lo || value > hi) {
    return false;
  }
  out = value;
  return true;
}

bool parseNonNegative(const char* text, double& out) {
  const char* end = text + std::strlen(text);
  double value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value) ||
      value < 0) {
    return false;
  }
  out = value;
  return true;
}

void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn,
                 int numThreads) {
  if (n == 0) return;
  // A single-layer graph: n dependency-free jobs sharing one body. The
  // graph's contract subsumes the old fork-join one — every index is
  // attempted, the lowest failing index's exception is rethrown, and a
  // nested call degrades to serial on the calling worker.
  JobGraph graph;
  graph.addJobRange(n, fn);
  graph.run(numThreads);
}

}  // namespace pao::util
