// Table I: overview of candidate job traces and the selection outcome,
// plus the realized statistics of the five synthesised stand-ins.
#include <cstddef>
#include <ostream>

#include "common.hpp"
#include "harnesses.hpp"
#include "trace/validate.hpp"
#include "util/table.hpp"

namespace lumos::bench {

obs::Report run_table1_traces(const Args& args, std::ostream& out) {
  banner(out,
         "Table I: public job traces, selection flags, and synthetic "
         "stand-ins",
         "five selected systems (Mira, Theta, Blue Waters, Philly, Helios); "
         "others excluded for size/count/consistency");

  util::TextTable t({"Dataset", "Affiliation", "Years", "Jobs", "Nodes",
                     "Cores", "GPUs", "Large", "User", "Status", "Consistent",
                     "Selected"});
  for (const auto& c : trace::table1_candidates()) {
    t.add_row({c.name, c.affiliation, c.years, c.job_count, c.nodes, c.cores,
               c.gpus, c.large_scale ? "yes" : "NO", c.user_info ? "yes" : "NO",
               c.job_status ? "yes" : "NO", c.info_consistent ? "yes" : "NO",
               c.selected ? "yes" : ("NO: " + c.exclusion_reason)});
  }
  out << t.render() << '\n';

  out << "Synthetic stand-ins actually generated:\n";
  const auto study = make_study(args);
  obs::Report report;
  report.harness = "table1_traces";
  report.figure = "Table 1";
  double validation_failures = 0.0;
  std::size_t quarantined = 0;
  util::TextTable s({"System", "Window", "Jobs", "Users", "Capacity", "Kind",
                     "VCs", "Validation"});
  for (const auto& trace : study.traces()) {
    const auto& spec = trace.spec();
    const auto vreport = trace::validate(trace);
    if (!vreport.consistent()) validation_failures += 1.0;
    // Repair path: quarantine offending jobs instead of aborting the run.
    // Synthetic stand-ins are expected to come through untouched.
    trace::Trace repaired = trace;
    const auto sreport = trace::sanitize(repaired, vreport);
    quarantined += sreport.dropped();
    report.set("jobs." + spec.name, static_cast<double>(trace.size()));
    report.set("users." + spec.name, static_cast<double>(trace.user_count()));
    s.add_row({spec.name, spec.trace_window,
               util::with_commas(static_cast<long long>(trace.size())),
               std::to_string(trace.user_count()),
               util::with_commas(spec.primary_capacity()),
               std::string(to_string(spec.primary_kind)),
               std::to_string(spec.virtual_clusters),
               vreport.consistent() ? "OK"
                                    : "FAIL (" + sreport.to_string() + ")"});
  }
  report.set("validation_failures", validation_failures);
  out << s.render();
  if (quarantined > 0) {
    out << "sanitize: quarantined " << quarantined
        << " jobs across all systems\n";
  }
  return report;
}

}  // namespace lumos::bench
