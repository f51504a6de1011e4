// Fig 5: waiting time correlated with job size and runtime categories.
#include <ostream>

#include "analysis/report.hpp"
#include "common.hpp"
#include "harnesses.hpp"

namespace lumos::bench {

obs::Report run_fig5_wait_geometry(const Args& args, std::ostream& out) {
  banner(out, "Fig 5: wait time vs job size / runtime",
         "middle-SIZE jobs wait longest everywhere except Theta (largest "
         "wait longest there); LONG jobs wait longest on every system "
         "(backfilling favours short jobs)");
  const auto study = make_study(args);
  const auto waits = study.waitings();
  out << analysis::render_wait_by_geometry(waits);

  obs::Report report;
  report.harness = "fig5_wait_geometry";
  report.figure = "Figure 5";
  for (const auto& w : waits) {
    report.set("mean_wait_long_s." + w.system,
               w.mean_wait_by_length[static_cast<std::size_t>(
                   trace::LengthCategory::Long)]);
    report.set("longest_wait_size." + w.system,
               static_cast<double>(w.longest_wait_size));
    report.set("longest_wait_length." + w.system,
               static_cast<double>(w.longest_wait_length));
  }
  return report;
}

}  // namespace lumos::bench
