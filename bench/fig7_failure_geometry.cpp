// Fig 7: job failure correlated with requested resources and runtime.
#include <ostream>

#include "analysis/report.hpp"
#include "common.hpp"
#include "harnesses.hpp"

namespace lumos::bench {

obs::Report run_fig7_failure_geometry(const Args& args, std::ostream& out) {
  banner(out, "Fig 7: failure vs job geometry",
         "pass rate falls with size ONLY in DL systems (Philly/Helios); "
         "pass rate falls with runtime on EVERY system — on Mira nearly all "
         ">1-day jobs end Killed");
  const auto study = make_study(args);
  const auto fails = study.failures();
  out << analysis::render_failure_by_geometry(fails);

  obs::Report report;
  report.harness = "fig7_failure_geometry";
  report.figure = "Figure 7";
  for (const auto& f : fails) {
    report.set("pass_rate_size_trend." + f.system, f.pass_rate_size_trend);
    report.set("pass_rate_length_trend." + f.system, f.pass_rate_length_trend);
  }
  return report;
}

}  // namespace lumos::bench
