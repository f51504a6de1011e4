// Extension harness (beyond the paper's figures): backfilling quality when
// walltime estimates come from the system's own runtime predictors instead
// of users — closing the loop between use case 1 and the scheduler.
#include <ostream>

#include "common.hpp"
#include "core/estimate_study.hpp"
#include "harnesses.hpp"

namespace lumos::bench {

obs::Report run_ext_prediction_backfill(const Args& args_in,
                                        std::ostream& out) {
  Args args = args_in;
  if (args.study.systems.empty()) {
    args.study.systems = {"Theta", "Philly"};
  }
  if (!args.study.duration_days) args.study.duration_days = 30.0;
  banner(out,
         "Extension: EASY backfilling on system-generated runtime estimates",
         "tighter estimates (oracle > gbrt/last2 > user requests) should "
         "reduce waits via better backfilling, while *underestimates* kill "
         "jobs at their predicted limit — the cost the paper's "
         "Underestimate Rate metric guards against");

  obs::Report report;
  report.harness = "ext_prediction_backfill";
  report.figure = "Extension: predictor-driven backfilling";

  const auto study = make_study(args);
  for (const auto& trace : study.traces()) {
    core::EstimateStudyConfig config;
    config.max_jobs = args.jobs_cap(config.max_jobs, 4000);
    const auto result = core::run_estimate_study(trace, config);
    out << core::render_estimate_study(result) << '\n';
    for (const auto& row : result.rows) {
      const std::string key =
          result.system + "." + core::to_string(row.source);
      report.set("wait_s." + key, row.metrics.avg_wait);
      report.set("killed_by_underestimate." + key,
                 static_cast<double>(row.killed_by_underestimate));
    }
  }
  return report;
}

}  // namespace lumos::bench
