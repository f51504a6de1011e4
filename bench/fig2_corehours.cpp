// Fig 2: core-hour domination of job size / length groups.
#include <ostream>

#include "analysis/report.hpp"
#include "common.hpp"
#include "harnesses.hpp"

namespace lumos::bench {

obs::Report run_fig2_corehours(const Args& args, std::ostream& out) {
  banner(out, "Fig 2: core-hour domination by job group",
         "BW small jobs >85% of core hours; Mira/Theta/Philly/Helios small "
         "<35%/<16%/<19%/<5%; HPC dominated by middle-length jobs, DL by "
         "long jobs");
  const auto study = make_study(args);
  const auto doms = study.dominations();
  out << analysis::render_domination(doms);

  obs::Report report;
  report.harness = "fig2_corehours";
  report.figure = "Figure 2";
  for (const auto& d : doms) {
    report.set("dominant_size_share." + d.system, d.dominant_size_share);
    report.set("dominant_length_share." + d.system, d.dominant_length_share);
  }
  return report;
}

}  // namespace lumos::bench
