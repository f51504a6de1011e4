#include "core/study.hpp"

#include <sstream>

#include "analysis/export.hpp"
#include "analysis/report.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace lumos::core {

CrossSystemStudy::CrossSystemStudy(StudyOptions options) {
  std::vector<synth::SystemCalibration> cals;
  if (options.systems.empty()) {
    cals = synth::all_calibrations();
  } else {
    for (const auto& name : options.systems) {
      cals.push_back(synth::calibration_for(name));
    }
  }
  traces_.reserve(cals.size());
  for (auto& cal : cals) {
    synth::GeneratorOptions gen_options;
    gen_options.seed = options.seed;
    gen_options.duration_days = options.duration_days;
    synth::WorkloadGenerator generator(std::move(cal), gen_options);
    traces_.push_back(generator.generate());
  }
}

CrossSystemStudy::CrossSystemStudy(std::vector<trace::Trace> traces)
    : traces_(std::move(traces)) {
  LUMOS_REQUIRE(!traces_.empty(), "study needs at least one trace");
}

const trace::Trace& CrossSystemStudy::trace(std::string_view system) const {
  const std::string key = util::to_lower(system);
  for (const auto& t : traces_) {
    if (util::to_lower(t.spec().name) == key) return t;
  }
  throw InvalidArgument("study has no trace for system: " +
                        std::string(system));
}

namespace {
template <typename R, typename F>
std::vector<R> map_traces(const std::vector<trace::Trace>& traces, F&& f) {
  std::vector<R> out;
  out.reserve(traces.size());
  for (const auto& t : traces) out.push_back(f(t));
  return out;
}
}  // namespace

std::vector<analysis::GeometryResult> CrossSystemStudy::geometries() const {
  return map_traces<analysis::GeometryResult>(traces_,
                                              analysis::analyze_geometry);
}
std::vector<analysis::ArrivalResult> CrossSystemStudy::arrivals() const {
  return map_traces<analysis::ArrivalResult>(traces_,
                                             analysis::analyze_arrivals);
}
std::vector<analysis::DominationResult> CrossSystemStudy::dominations() const {
  return map_traces<analysis::DominationResult>(traces_,
                                                analysis::analyze_domination);
}
std::vector<analysis::UtilizationResult> CrossSystemStudy::utilizations()
    const {
  return map_traces<analysis::UtilizationResult>(
      traces_, [](const trace::Trace& t) {
        return analysis::analyze_utilization(t);
      });
}
std::vector<analysis::WaitingResult> CrossSystemStudy::waitings() const {
  return map_traces<analysis::WaitingResult>(traces_,
                                             analysis::analyze_waiting);
}
std::vector<analysis::FailureResult> CrossSystemStudy::failures() const {
  return map_traces<analysis::FailureResult>(traces_,
                                             analysis::analyze_failures);
}
std::vector<analysis::RepetitionResult> CrossSystemStudy::repetitions() const {
  return map_traces<analysis::RepetitionResult>(
      traces_, [](const trace::Trace& t) {
        return analysis::analyze_repetition(t);
      });
}
std::vector<analysis::QueueBehaviorResult> CrossSystemStudy::queue_behaviors()
    const {
  return map_traces<analysis::QueueBehaviorResult>(
      traces_, analysis::analyze_queue_behavior);
}
std::vector<analysis::UserStatusResult> CrossSystemStudy::user_statuses()
    const {
  return map_traces<analysis::UserStatusResult>(
      traces_, [](const trace::Trace& t) {
        return analysis::analyze_user_status(t);
      });
}

// A result shared by two figures lives in its own block, so it is freed
// before the next analysis runs: holding them all would raise peak memory.
std::string CrossSystemStudy::full_report() const {
  std::ostringstream os;
  {
    const auto geo = geometries();
    os << "=== Fig 1(a/c): job geometries ===\n"
       << analysis::render_geometry(geo) << '\n';
    os << "=== Fig 1(a): runtime CDF ===\n"
       << analysis::render_runtime_cdf(geo) << '\n';
  }
  os << "=== Fig 1(b): arrival patterns ===\n"
     << analysis::render_arrivals(arrivals()) << '\n';
  os << "=== Fig 2: core-hour domination ===\n"
     << analysis::render_domination(dominations()) << '\n';
  os << "=== Fig 3: system utilization ===\n"
     << analysis::render_utilization(utilizations()) << '\n';
  {
    const auto wait = waitings();
    os << "=== Fig 4: waiting / turnaround ===\n"
       << analysis::render_waiting(wait) << '\n';
    os << "=== Fig 5: wait vs geometry ===\n"
       << analysis::render_wait_by_geometry(wait) << '\n';
  }
  {
    const auto fail = failures();
    os << "=== Fig 6: status distribution ===\n"
       << analysis::render_status_distribution(fail) << '\n';
    os << "=== Fig 7: failure vs geometry ===\n"
       << analysis::render_failure_by_geometry(fail) << '\n';
  }
  os << "=== Fig 8: user repetition ===\n"
     << analysis::render_repetition(repetitions()) << '\n';
  {
    const auto queue = queue_behaviors();
    os << "=== Fig 9: queue length vs requested size ===\n"
       << analysis::render_queue_behavior_size(queue) << '\n';
    os << "=== Fig 10: queue length vs runtime ===\n"
       << analysis::render_queue_behavior_runtime(queue) << '\n';
  }
  os << "=== Fig 11: per-user runtime by status ===\n"
     << analysis::render_user_status(user_statuses()) << '\n';
  return os.str();
}

void CrossSystemStudy::export_csv(const std::string& dir) const {
  {
    const auto geo = geometries();
    analysis::export_runtime_cdf(dir, geo);
    analysis::export_cores_cdf(dir, geo);
  }
  analysis::export_hourly(dir, arrivals());
  analysis::export_domination(dir, dominations());
  analysis::export_utilization(dir, utilizations());
  analysis::export_wait_cdf(dir, waitings());
  analysis::export_status(dir, failures());
  analysis::export_repetition(dir, repetitions());
  analysis::export_queue_mix(dir, queue_behaviors());
}

}  // namespace lumos::core
