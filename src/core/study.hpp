// CrossSystemStudy — the paper's whole §III-§V pipeline behind one façade.
//
// Owns the five system traces (synthesised by default, or supplied from
// parsed real traces) and lazily runs every figure analysis across them.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/arrival.hpp"
#include "analysis/domination.hpp"
#include "analysis/failure.hpp"
#include "analysis/geometry.hpp"
#include "analysis/user_behavior.hpp"
#include "analysis/utilization.hpp"
#include "analysis/waiting.hpp"
#include "synth/generator.hpp"
#include "trace/trace.hpp"

namespace lumos::core {

struct StudyOptions {
  std::uint64_t seed = 42;
  /// Overrides every system's synthesis window (days). Unset = per-system
  /// calibrated default (120 d HPC, 14 d Helios).
  std::optional<double> duration_days;
  /// Restrict to these systems (empty = all five).
  std::vector<std::string> systems;
};

class CrossSystemStudy {
 public:
  /// Synthesises the workloads per StudyOptions.
  explicit CrossSystemStudy(StudyOptions options = {});

  /// Builds a study over caller-provided traces (e.g. parsed real data).
  explicit CrossSystemStudy(std::vector<trace::Trace> traces);

  [[nodiscard]] const std::vector<trace::Trace>& traces() const noexcept {
    return traces_;
  }
  [[nodiscard]] const trace::Trace& trace(std::string_view system) const;

  // One vector entry per system, in construction order.
  [[nodiscard]] std::vector<analysis::GeometryResult> geometries() const;
  [[nodiscard]] std::vector<analysis::ArrivalResult> arrivals() const;
  [[nodiscard]] std::vector<analysis::DominationResult> dominations() const;
  [[nodiscard]] std::vector<analysis::UtilizationResult> utilizations() const;
  [[nodiscard]] std::vector<analysis::WaitingResult> waitings() const;
  [[nodiscard]] std::vector<analysis::FailureResult> failures() const;
  [[nodiscard]] std::vector<analysis::RepetitionResult> repetitions() const;
  [[nodiscard]] std::vector<analysis::QueueBehaviorResult> queue_behaviors()
      const;
  [[nodiscard]] std::vector<analysis::UserStatusResult> user_statuses() const;

  /// Renders every figure's comparison table into one report. Each
  /// analysis above runs once; figures that share one (Fig 1/1(a), 4/5,
  /// 6/7, 9/10) render from the same result, and no two results are held
  /// at once.
  [[nodiscard]] std::string full_report() const;

  /// Writes every figure's data series as CSV files into `dir`
  /// (analysis/export.hpp documents the file set), running each analysis
  /// once.
  void export_csv(const std::string& dir) const;

 private:
  std::vector<trace::Trace> traces_;
};

}  // namespace lumos::core
