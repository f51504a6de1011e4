// Extension harness: fault-aware job management (Takeaway 7) — how many of
// the core-hours burned by doomed jobs a doom-probability monitor could
// recover, against how much useful work it would destroy.
#include <ostream>

#include "common.hpp"
#include "core/fault_aware_study.hpp"
#include "harnesses.hpp"
#include "util/string_util.hpp"

namespace lumos::bench {

obs::Report run_ext_fault_aware(const Args& args_in, std::ostream& out) {
  Args args = args_in;
  if (args.study.systems.empty()) {
    args.study.systems = {"Philly", "Mira"};
  }
  if (!args.study.duration_days) args.study.duration_days = 20.0;
  banner(out, "Extension: fault-aware termination of doomed jobs",
         "killed/failed jobs burn a large share of core-hours (Fig 6); a "
         "monitor that stops jobs whose predicted doom probability crosses "
         "a threshold recovers part of that waste, trading off collateral "
         "kills of healthy jobs as the threshold drops");

  obs::Report report;
  report.harness = "ext_fault_aware";
  report.figure = "Extension: fault-aware management";

  const auto study = make_study(args);
  for (const auto& trace : study.traces()) {
    core::FaultAwareConfig config;
    config.max_jobs = args.jobs_cap(config.max_jobs, 4000);
    const auto result = core::run_fault_aware_study(trace, config);
    out << core::render_fault_aware_study(result) << '\n';
    for (const auto& row : result.rows) {
      const std::string key = result.system + "." +
                              util::format("%.0f", row.threshold * 100.0);
      report.set("waste_recall." + key, row.waste_recall);
      report.set("precision." + key, row.precision);
    }
  }
  return report;
}

}  // namespace lumos::bench
