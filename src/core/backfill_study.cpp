#include "core/backfill_study.hpp"

#include <sstream>

#include "obs/registry.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace lumos::core {

namespace {

double relative_improvement(double baseline, double candidate) {
  if (baseline == 0.0) return 0.0;
  return (baseline - candidate) / baseline;
}

}  // namespace

BackfillComparison compare_backfill(const trace::Trace& trace,
                                    const BackfillStudyConfig& config) {
  BackfillComparison out;
  out.system = trace.spec().name;

  sim::SimConfig relaxed_cfg;
  relaxed_cfg.policy = config.policy;
  relaxed_cfg.bsld_bound = config.bsld_bound;
  relaxed_cfg.backfill.kind = sim::BackfillKind::Relaxed;
  relaxed_cfg.backfill.relax_factor = config.relax_factor;

  sim::SimConfig adaptive_cfg = relaxed_cfg;
  adaptive_cfg.backfill.kind = sim::BackfillKind::AdaptiveRelaxed;
  adaptive_cfg.backfill.adaptive_shape = config.adaptive_shape;

  const auto relaxed_result = sim::simulate(trace, relaxed_cfg);
  out.relaxed = sim::compute_metrics(trace, relaxed_result, config.bsld_bound);
  const auto adaptive_result = sim::simulate(trace, adaptive_cfg);
  out.adaptive =
      sim::compute_metrics(trace, adaptive_result, config.bsld_bound);

  out.wait_improvement =
      relative_improvement(out.relaxed.avg_wait, out.adaptive.avg_wait);
  out.bsld_improvement = relative_improvement(
      out.relaxed.avg_bounded_slowdown, out.adaptive.avg_bounded_slowdown);
  // Utilization: higher is better, so flip the sign convention.
  out.util_improvement =
      -relative_improvement(out.relaxed.utilization, out.adaptive.utilization);
  // The paper reports the reduction on the displayed (mean) violation.
  out.violation_reduction =
      relative_improvement(out.relaxed.violation, out.adaptive.violation);
  return out;
}

std::vector<BackfillComparison> run_backfill_study(
    const std::vector<trace::Trace>& traces,
    const BackfillStudyConfig& config) {
  std::vector<const trace::Trace*> eligible;
  for (const auto& t : traces) {
    if (!t.spec().has_walltime_estimates) {
      LUMOS_INFO << "backfill study skips " << t.spec().name
                 << " (no walltime requests, as in the paper)";
      continue;
    }
    eligible.push_back(&t);
  }
  // Each trace's pair of simulations is independent and deterministic, so
  // fanning them out and assembling rows by index yields the same study
  // for any pool size.
  std::vector<BackfillComparison> rows(eligible.size());
  util::ThreadPool pool(config.threads);
  pool.parallel_for(0, eligible.size(), [&](std::size_t i) {
    rows[i] = compare_backfill(*eligible[i], config);
  });
  // Publish pool usage: tasks_run is deterministic (chunk count).
  obs::Registry::global()
      .counter("threadpool.tasks_run")
      .add(pool.tasks_run());
  return rows;
}

std::string render_backfill_study(
    const std::vector<BackfillComparison>& rows) {
  util::TextTable t({"Traces", "Metrics", "Relaxed", "Adaptive", "Improved"});
  for (const auto& r : rows) {
    t.add_row({r.system, "wait", util::fixed(r.relaxed.avg_wait, 2),
               util::fixed(r.adaptive.avg_wait, 2),
               util::percent(r.wait_improvement, 1)});
    t.add_row({"", "bsld", util::fixed(r.relaxed.avg_bounded_slowdown, 2),
               util::fixed(r.adaptive.avg_bounded_slowdown, 2),
               util::percent(r.bsld_improvement, 1)});
    t.add_row({"", "util", util::fixed(r.relaxed.utilization, 4),
               util::fixed(r.adaptive.utilization, 4),
               util::percent(r.util_improvement, 1)});
    t.add_row({"", "violation", util::fixed(r.relaxed.violation, 2),
               util::fixed(r.adaptive.violation, 2),
               util::percent(r.violation_reduction, 1)});
  }
  return t.render();
}

}  // namespace lumos::core
