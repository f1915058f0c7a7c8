// Numeric command-line flag values for pao_cli and pao_serve. Each value
// must parse whole (util::parseInteger / util::parseNonNegative); a bad one
// prints one line naming the flag and the accepted range, and the tool exits
// 2 before any work starts.
#pragma once

#include <cstdio>
#include <limits>

#include "util/executor.hpp"

namespace pao::tools {

/// Upper bound of the int-valued count flags.
constexpr long long kIntMax = std::numeric_limits<int>::max();

/// Parses `value` of `flag` as a whole integer in [lo, hi] into `out`.
template <typename T>
bool parseIntFlag(const char* flag, const char* value, long long lo,
                  long long hi, T& out) {
  long long v = 0;
  if (!util::parseInteger(value, lo, hi, v)) {
    std::fprintf(stderr, "%s: expected an integer in [%lld, %lld], got '%s'\n",
                 flag, lo, hi, value);
    return false;
  }
  out = static_cast<T>(v);
  return true;
}

/// Parses `value` of `flag` as a finite number >= 0 into `out`.
inline bool parseNonNegativeFlag(const char* flag, const char* value,
                                 double& out) {
  if (util::parseNonNegative(value, out)) return true;
  std::fprintf(stderr, "%s: expected a number >= 0, got '%s'\n", flag, value);
  return false;
}

}  // namespace pao::tools
