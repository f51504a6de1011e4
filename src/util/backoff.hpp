// Deterministic capped exponential backoff — the one retry schedule.
//
// The streaming event sources (stream::RetryingSource, retrying transient
// open/read failures) pace retries with this schedule: base * 2^(retry-1),
// capped. It is a pure function, so tests can assert a schedule without
// sleeping (the source takes an injectable sleep hook).
#pragma once

#include <algorithm>
#include <cstddef>

#include "util/error.hpp"

namespace lumos::util {

/// Delay before 1-based retry `retry_index`: base * 2^(retry_index - 1),
/// capped at `cap_seconds`. Deterministic — no jitter, by design: lumos
/// retry schedules must reproduce bit-for-bit in drills and tests.
[[nodiscard]] inline double backoff_delay_seconds(double base_seconds,
                                                  double cap_seconds,
                                                  std::size_t retry_index) {
  LUMOS_REQUIRE(retry_index >= 1, "backoff: retry_index is 1-based");
  double delay = base_seconds;
  for (std::size_t i = 1; i < retry_index; ++i) {
    delay *= 2.0;
    if (delay >= cap_seconds) break;
  }
  return std::min(delay, cap_seconds);
}

}  // namespace lumos::util
