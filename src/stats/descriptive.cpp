#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>

#include "util/string_util.hpp"
#include "util/error.hpp"

namespace lumos::stats {

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) noexcept {
  return std::sqrt(variance(xs));
}

double quantile_sorted(std::span<const double> sorted, double q) noexcept {
  if (sorted.empty()) return 0.0;
  if (q <= 0.0) return sorted.front();
  if (q >= 1.0) return sorted.back();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

double quantile(std::span<const double> xs, double q) {
  LUMOS_REQUIRE(q >= 0.0 && q <= 1.0, "quantile q must be in [0,1]");
  std::vector<double> copy(xs.begin(), xs.end());
  std::sort(copy.begin(), copy.end());
  return quantile_sorted(copy, q);
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  s.p25 = quantile_sorted(sorted, 0.25);
  s.median = quantile_sorted(sorted, 0.5);
  s.p75 = quantile_sorted(sorted, 0.75);
  s.p90 = quantile_sorted(sorted, 0.90);
  s.p99 = quantile_sorted(sorted, 0.99);
  s.mean = mean(xs);
  s.stddev = stddev(xs);
  for (double x : xs) s.sum += x;
  return s;
}

std::string to_string(const Summary& s) {
  return util::format(
      "n=%zu mean=%.3g sd=%.3g min=%.3g p25=%.3g p50=%.3g p75=%.3g p90=%.3g "
      "p99=%.3g max=%.3g",
      s.count, s.mean, s.stddev, s.min, s.p25, s.median, s.p75, s.p90, s.p99,
      s.max);
}

}  // namespace lumos::stats
