// Fig 3: system utilization, reconstructed from recorded job placement.
#include <algorithm>
#include <ostream>

#include "analysis/report.hpp"
#include "common.hpp"
#include "harnesses.hpp"
#include "util/table.hpp"

namespace lumos::bench {

obs::Report run_fig3_utilization(const Args& args, std::ostream& out) {
  banner(out, "Fig 3: system utilization",
         "Philly lowest (~43% average, virtual-cluster fragmentation), "
         "Helios below 80% most of the time, HPC systems ~70-90%");
  const auto study = make_study(args);
  const auto utils = study.utilizations();
  out << analysis::render_utilization(utils) << '\n';

  // Utilization timeline, decimated to ~daily points.
  out << "Daily utilization series:\n";
  util::TextTable t([&] {
    std::vector<std::string> header{"Day"};
    for (const auto& u : utils) header.push_back(u.system);
    return header;
  }());
  std::size_t max_days = 0;
  for (const auto& u : utils) {
    max_days = std::max(max_days, u.series.size() / 24);
  }
  for (std::size_t d = 0; d < max_days; ++d) {
    std::vector<std::string> row{std::to_string(d)};
    bool any = false;
    for (const auto& u : utils) {
      const std::size_t lo = d * 24;
      if (lo >= u.series.size()) {
        row.push_back("-");
        continue;
      }
      double sum = 0.0;
      std::size_t n = 0;
      for (std::size_t h = lo; h < std::min(u.series.size(), lo + 24); ++h) {
        sum += u.series[h];
        ++n;
      }
      row.push_back(util::percent(sum / static_cast<double>(n), 0));
      any = true;
    }
    if (any) t.add_row(row);
    if (d >= 30) break;  // cap the printout
  }
  out << t.render();

  obs::Report report;
  report.harness = "fig3_utilization";
  report.figure = "Figure 3";
  for (const auto& u : utils) {
    report.set("avg_utilization." + u.system, u.average);
    report.set("frac_hours_above_80." + u.system, u.frac_above_80);
  }
  return report;
}

}  // namespace lumos::bench
