// Hour-of-day arrival counts.
//
// The hourly-arrival profile (Fig 1b bottom) is a 24-bin count of submit
// times by local hour of day.
#pragma once

#include <span>
#include <vector>

namespace lumos::stats {

/// Counts per local hour-of-day (24 bins) — the Fig 1b bottom panel.
[[nodiscard]] std::vector<double> hourly_counts(
    std::span<const double> submit_times, long long epoch_unix,
    double utc_offset_hours);

}  // namespace lumos::stats
