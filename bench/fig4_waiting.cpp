// Fig 4: CDFs of job waiting time and turnaround time.
#include <ostream>

#include "analysis/report.hpp"
#include "common.hpp"
#include "harnesses.hpp"
#include "util/table.hpp"
#include "util/time_util.hpp"

namespace lumos::bench {

obs::Report run_fig4_waiting(const Args& args, std::ostream& out) {
  banner(out, "Fig 4: waiting and turnaround time CDFs",
         "Helios: ~80% wait <10s; Philly: >50% wait >=10min; Blue Waters "
         "longest (median ~1.5h, roughly its median runtime)");
  const auto study = make_study(args);
  const auto waits = study.waitings();
  out << analysis::render_waiting(waits) << '\n';

  out << "Wait-time CDF (quantiles):\n";
  util::TextTable t([&] {
    std::vector<std::string> header{"P(wait <= x)"};
    for (const auto& w : waits) header.push_back(w.system);
    return header;
  }());
  for (int q10 = 1; q10 <= 9; ++q10) {
    const double q = q10 / 10.0;
    std::vector<std::string> row{util::percent(q, 0)};
    for (const auto& w : waits) {
      row.push_back(util::format_duration(w.wait_cdf.quantile(q)));
    }
    t.add_row(row);
  }
  out << t.render();

  obs::Report report;
  report.harness = "fig4_waiting";
  report.figure = "Figure 4";
  for (const auto& w : waits) {
    report.set("median_wait_s." + w.system, w.wait_summary.median);
    report.set("frac_wait_under_10s." + w.system, w.frac_wait_under_10s);
    report.set("frac_wait_over_10min." + w.system, w.frac_wait_over_10min);
  }
  return report;
}

}  // namespace lumos::bench
