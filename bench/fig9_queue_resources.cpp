// Fig 9: requested resources vs queue length at submission.
#include <ostream>

#include "analysis/report.hpp"
#include "common.hpp"
#include "harnesses.hpp"

namespace lumos::bench {

obs::Report run_fig9_queue_resources(const Args& args, std::ostream& out) {
  banner(out, "Fig 9: requested size mix vs queue length",
         "as the queue grows users request smaller jobs on every system; "
         "under the longest Philly queues nearly all submissions are 1 GPU");
  const auto study = make_study(args);
  const auto qbs = study.queue_behaviors();
  out << analysis::render_queue_behavior_size(qbs);

  obs::Report report;
  report.harness = "fig9_queue_resources";
  report.figure = "Figure 9";
  for (const auto& q : qbs) {
    report.set("mean_cores_calm." + q.system, q.mean_cores[0]);
    report.set("mean_cores_congested." + q.system,
               q.mean_cores[analysis::kNumQueueBuckets - 1]);
  }
  return report;
}

}  // namespace lumos::bench
