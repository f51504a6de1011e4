// Fig 8: per-user resource-configuration repetition.
#include <ostream>

#include "analysis/report.hpp"
#include "common.hpp"
#include "harnesses.hpp"

namespace lumos::bench {

obs::Report run_fig8_user_repetition(const Args& args, std::ostream& out) {
  banner(out,
         "Fig 8: cumulative share of a user's top-k resource-config groups",
         "top-10 groups cover ~90% of jobs on every system; at top-3 the "
         "HPC systems already pass 80% while DL (Philly/Helios) stay below "
         "~60%");
  const auto study = make_study(args);
  const auto reps = study.repetitions();
  out << analysis::render_repetition(reps);

  obs::Report report;
  report.harness = "fig8_user_repetition";
  report.figure = "Figure 8";
  for (const auto& r : reps) {
    report.set("top3_share." + r.system, r.cumulative_share[2]);
    report.set("top10_share." + r.system, r.cumulative_share[9]);
  }
  return report;
}

}  // namespace lumos::bench
