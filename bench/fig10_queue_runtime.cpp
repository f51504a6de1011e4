// Fig 10: submitted jobs' runtime vs queue length at submission.
#include <ostream>

#include "analysis/report.hpp"
#include "common.hpp"
#include "harnesses.hpp"

namespace lumos::bench {

obs::Report run_fig10_queue_runtime(const Args& args, std::ostream& out) {
  banner(out, "Fig 10: runtime mix vs queue length",
         "DL users submit SHORTER jobs when the system is busy; "
         "Mira/Theta/BW runtimes are essentially insensitive to queue "
         "length");
  const auto study = make_study(args);
  const auto qbs = study.queue_behaviors();
  out << analysis::render_queue_behavior_runtime(qbs);

  obs::Report report;
  report.harness = "fig10_queue_runtime";
  report.figure = "Figure 10";
  for (const auto& q : qbs) {
    report.set("median_run_calm_s." + q.system, q.median_run[0]);
    report.set("median_run_congested_s." + q.system,
               q.median_run[analysis::kNumQueueBuckets - 1]);
  }
  return report;
}

}  // namespace lumos::bench
