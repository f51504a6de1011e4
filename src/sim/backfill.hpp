// Backfilling strategies, including the paper's contribution.
//
//  * None          — queue head blocks everything behind it.
//  * Easy          — EASY backfilling (Lifka'95 / Mu'alem-Feitelson'01): a
//                    later job may jump the queue iff it cannot delay the
//                    head job's reservation.
//  * Conservative  — every queued job holds a reservation; a job may start
//                    early iff it delays none of them.
//  * Relaxed       — Ward et al. (JSSPP'02): a backfill may delay the head
//                    job's reservation by up to `factor` × its expected
//                    wait.
//  * AdaptiveRelaxed — the paper's Eq. (1): the allowance factor is scaled
//                    by current_queue_length / max_queue_length, enabling
//                    aggressive relaxation exactly when users are submitting
//                    the small/short jobs that backfill well (Takeaway 8).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace lumos::sim {

enum class BackfillKind : std::uint8_t {
  None,
  Easy,
  Conservative,
  Relaxed,
  AdaptiveRelaxed,
};

[[nodiscard]] std::string_view to_string(BackfillKind b) noexcept;
[[nodiscard]] BackfillKind backfill_from_string(std::string_view name);

/// How the adaptive factor responds to queue pressure (ablation, DESIGN §4).
enum class AdaptiveShape : std::uint8_t {
  Linear,     ///< factor * q/Q           — the paper's Eq. (1)
  Quadratic,  ///< factor * (q/Q)^2       — more conservative at low load
  Sqrt,       ///< factor * sqrt(q/Q)     — more aggressive at low load
};

[[nodiscard]] std::string_view to_string(AdaptiveShape s) noexcept;

struct BackfillConfig {
  BackfillKind kind = BackfillKind::Easy;
  /// Base relaxation factor (the paper discusses 10%/20%; default 10%).
  double relax_factor = 0.10;
  AdaptiveShape adaptive_shape = AdaptiveShape::Linear;
};

/// The effective relaxation allowance factor for the current queue state.
[[nodiscard]] double effective_relax_factor(const BackfillConfig& config,
                                            std::size_t queue_length,
                                            std::size_t max_queue_length)
    noexcept;

}  // namespace lumos::sim
