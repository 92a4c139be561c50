// Small measurement helpers shared by the benchmark's phases: exact
// percentiles over raw samples, and value lookup in the daemon's JSON
// replies (METRICS, STATS).

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// An exact percentile of raw samples (nearest rank), with the sample
/// count and how many samples lie above it.
struct Percentile {
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
  /// At least ten samples lie beyond the percentile.
  bool supported() const { return beyond >= 10; }
};

/// Nearest-rank percentile `p` in (0, 1] of `values`; never interpolates,
/// so the value is always one that was measured.
inline Percentile ExactPercentile(std::vector<double> values, double p) {
  Percentile out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  const size_t index = std::clamp<size_t>(rank, 1, values.size()) - 1;
  out.value = values[index];
  out.beyond = values.size() - 1 - index;
  return out;
}

inline double Median(std::vector<double> values) {
  return ExactPercentile(std::move(values), 0.5).value;
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// The number following `"key":` for the path of keys, each searched
/// after the previous one (so {"sketch_cache", "evictions"} finds the
/// evictions counter inside the sketch_cache object). 0 when absent.
inline double JsonNumberAt(std::string_view json,
                           std::initializer_list<std::string_view> path) {
  size_t pos = 0;
  for (const std::string_view key : path) {
    const std::string needle = "\"" + std::string(key) + "\":";
    pos = json.find(needle, pos);
    if (pos == std::string_view::npos) return 0.0;
    pos += needle.size();
  }
  const std::string tail(json.substr(pos, 32));
  return std::strtod(tail.c_str(), nullptr);
}

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
