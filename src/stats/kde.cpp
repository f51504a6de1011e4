#include "stats/kde.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "stats/descriptive.hpp"

namespace lumos::stats {

double scott_bandwidth(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 1.0;
  const double sd = stddev(xs);
  if (sd <= 0.0) return 1.0;
  return sd * std::pow(static_cast<double>(xs.size()), -0.2);
}

double kde_density(std::span<const double> xs, double x,
                   double bandwidth) noexcept {
  if (xs.empty() || bandwidth <= 0.0) return 0.0;
  const double inv_h = 1.0 / bandwidth;
  const double norm =
      inv_h / (std::sqrt(2.0 * std::numbers::pi) *
               static_cast<double>(xs.size()));
  double sum = 0.0;
  for (double xi : xs) {
    const double u = (x - xi) * inv_h;
    sum += std::exp(-0.5 * u * u);
  }
  return sum * norm;
}

ViolinSummary violin_log(std::span<const double> xs, std::size_t points) {
  std::vector<double> logs;
  logs.reserve(xs.size());
  for (double x : xs) {
    if (x > 0.0) logs.push_back(std::log10(x));
  }
  ViolinSummary v;
  v.count = logs.size();
  if (logs.empty() || points < 2) return v;
  const auto [mn_it, mx_it] = std::minmax_element(logs.begin(), logs.end());
  double lo = *mn_it;
  double hi = *mx_it;
  if (hi <= lo) hi = lo + 1.0;
  v.bandwidth = scott_bandwidth(logs);
  v.grid.resize(points);
  v.density.resize(points);
  double best = -1.0;
  for (std::size_t i = 0; i < points; ++i) {
    const double f = static_cast<double>(i) / static_cast<double>(points - 1);
    const double g = lo + f * (hi - lo);
    v.grid[i] = std::pow(10.0, g);
    v.density[i] = kde_density(logs, g, v.bandwidth);
    if (v.density[i] > best) {
      best = v.density[i];
      v.mode = v.grid[i];
    }
  }
  return v;
}

}  // namespace lumos::stats
