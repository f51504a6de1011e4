// Fig 1: job geometries — runtime CDF/violin (a), arrival patterns (b),
// resource allocation (c).
#include <ostream>

#include "analysis/report.hpp"
#include "common.hpp"
#include "harnesses.hpp"

namespace lumos::bench {

obs::Report run_fig1_geometries(const Args& args, std::ostream& out) {
  banner(out, "Fig 1: job geometries across systems",
         "(a) median runtime Mira/BW ~1.5h >> Philly ~12min >> Helios ~90s, "
         "DL spreads widest; (b) DL/hybrid gaps ~5-10s vs HPC ~100s, Helios "
         "strongly diurnal, Philly flat/inverted; (c) ~80% of DL jobs use 1 "
         "GPU, >50% of Mira jobs >1000 cores, BW median ~512 cores");

  const auto study = make_study(args);
  const auto geo = study.geometries();
  const auto arr = study.arrivals();

  out << "--- Fig 1(a)/(c): geometry summaries ---\n"
      << analysis::render_geometry(geo) << '\n'
      << "--- Fig 1(a): runtime CDF (quantiles) ---\n"
      << analysis::render_runtime_cdf(geo) << '\n'
      << "--- Fig 1(b): inter-arrival + peak statistics ---\n"
      << analysis::render_arrivals(arr) << '\n'
      << "--- Fig 1(b) bottom: hourly submission profile (x of mean) ---\n"
      << analysis::render_hourly(arr);

  obs::Report report;
  report.harness = "fig1_geometries";
  report.figure = "Figure 1";
  for (const auto& g : geo) {
    report.set("median_runtime_s." + g.system, g.runtime_summary.median);
    report.set("p99_runtime_s." + g.system, g.runtime_summary.p99);
    report.set("frac_single_core." + g.system, g.frac_single_core);
  }
  for (const auto& a : arr) {
    report.set("median_interarrival_s." + a.system,
               a.interarrival_summary.median);
    report.set("peak_hour_ratio." + a.system, a.peak_ratio);
  }
  return report;
}

}  // namespace lumos::bench
