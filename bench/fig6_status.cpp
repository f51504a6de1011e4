// Fig 6: distribution of job statuses — counts vs consumed core hours.
#include <ostream>

#include "analysis/report.hpp"
#include "common.hpp"
#include "harnesses.hpp"

namespace lumos::bench {

obs::Report run_fig6_status(const Args& args, std::ostream& out) {
  banner(out, "Fig 6: job status distribution (counts % vs core-hours %)",
         "Passed <70% everywhere; Killed jobs consume disproportionately "
         "MORE core-hours than their count (Philly: ~60% passed jobs use "
         "only ~34% of GPU hours); Failed jobs consume LESS (fail early)");
  const auto study = make_study(args);
  const auto fails = study.failures();
  out << analysis::render_status_distribution(fails);

  obs::Report report;
  report.harness = "fig6_status";
  report.figure = "Figure 6";
  for (const auto& f : fails) {
    report.set("passed_job_share." + f.system,
               f.overall.job_fraction(trace::JobStatus::Passed));
    report.set("passed_corehour_share." + f.system,
               f.overall.core_hour_fraction(trace::JobStatus::Passed));
  }
  return report;
}

}  // namespace lumos::bench
