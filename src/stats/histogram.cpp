#include "stats/histogram.hpp"

#include "util/time_util.hpp"

namespace lumos::stats {

std::vector<double> hourly_counts(std::span<const double> submit_times,
                                  long long epoch_unix,
                                  double utc_offset_hours) {
  std::vector<double> counts(24, 0.0);
  for (double t : submit_times) {
    counts[util::hour_of_day(t, epoch_unix, utc_offset_hours)] += 1.0;
  }
  return counts;
}

}  // namespace lumos::stats
