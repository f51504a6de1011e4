// Descriptive statistics over double samples.
#pragma once

#include <span>
#include <string>
#include <vector>

namespace lumos::stats {

/// Five-number-plus summary of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  double sum = 0.0;
};

/// Arithmetic mean; 0 for an empty sample.
[[nodiscard]] double mean(std::span<const double> xs) noexcept;

/// Unbiased sample variance; 0 for n < 2.
[[nodiscard]] double variance(std::span<const double> xs) noexcept;

/// sqrt(variance).
[[nodiscard]] double stddev(std::span<const double> xs) noexcept;

/// Linear-interpolated quantile, q in [0,1]. Sorts a copy; O(n log n).
[[nodiscard]] double quantile(std::span<const double> xs, double q);

/// Quantile over data the caller has already sorted ascending; O(1).
///
/// This is THE quantile convention of the repo — every quantile producer
/// (`quantile`, `summarize`, `Ecdf::quantile`, `stats::QuantileSketch`,
/// `stats::StreamingHistogram`) follows it, and the
/// `SketchMatchesExactConvention` test pins exact and sketch backends to
/// it so they stay swappable:
///   * position: the q-quantile sits at fractional 0-based position
///     `pos = q * (n - 1)` in order-statistic space (the "type 7" /
///     numpy-default rule);
///   * interpolation: linear between the two adjacent order statistics,
///     `x[floor(pos)] * (1 - frac) + x[floor(pos) + 1] * frac`;
///   * ties: duplicate values are distinct order statistics (a run of
///     equal values occupies a run of positions); the forward CDF
///     `F(x) = P(X <= x)` counts ALL items `<= x` (upper-bound
///     semantics), so `F` is right-continuous at ties;
///   * clamping: `q <= 0` returns the minimum, `q >= 1` the maximum.
[[nodiscard]] double quantile_sorted(std::span<const double> sorted,
                                     double q) noexcept;

/// Median (quantile 0.5).
[[nodiscard]] double median(std::span<const double> xs);

/// Full summary in one pass over a sorted copy.
[[nodiscard]] Summary summarize(std::span<const double> xs);

/// Renders "n=... mean=... p50=..." for reports.
[[nodiscard]] std::string to_string(const Summary& s);

}  // namespace lumos::stats
