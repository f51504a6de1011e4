// Gaussian kernel density estimation — the numeric core behind the paper's
// violin plots (Figs 1a bottom, 11). We evaluate the density on a grid (in
// log space for runtimes) and report the grid + densities plus the modal
// interval, which is what "widest (high density) part" refers to in §V-C.
#pragma once

#include <span>
#include <vector>

namespace lumos::stats {

/// A violin summary: density evaluated on a fixed grid.
struct ViolinSummary {
  std::vector<double> grid;      ///< evaluation points (original units)
  std::vector<double> density;   ///< KDE density at each grid point
  double mode = 0.0;             ///< grid point of maximal density
  double bandwidth = 0.0;        ///< bandwidth used (in transform space)
  std::size_t count = 0;         ///< sample size
};

/// Scott's rule bandwidth for a sample (returns a positive fallback for
/// degenerate samples).
[[nodiscard]] double scott_bandwidth(std::span<const double> xs) noexcept;

/// Gaussian KDE density at point x.
[[nodiscard]] double kde_density(std::span<const double> xs, double x,
                                 double bandwidth) noexcept;

/// Violin in log10 space (for runtimes spanning decades). Non-positive
/// samples are dropped; the returned grid is in original units.
[[nodiscard]] ViolinSummary violin_log(std::span<const double> xs,
                                       std::size_t points = 64);

}  // namespace lumos::stats
