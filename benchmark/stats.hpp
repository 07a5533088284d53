// Sample statistics and the named-metric list the benchmark prints.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

namespace pstap::bench {

/// Exact sample quantile, linear between order statistics (q in [0, 1]).
/// An empty sample gives 0.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

using Metrics = std::vector<Metric>;

}  // namespace pstap::bench
