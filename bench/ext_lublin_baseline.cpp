// Extension harness: the Lublin-Feitelson'03 model (the paper's ref [25])
// side by side with the paper-calibrated generators — which modern
// workload shapes does the classic model miss?
#include <ostream>

#include "analysis/report.hpp"
#include "common.hpp"
#include "harnesses.hpp"
#include "synth/lublin.hpp"

namespace lumos::bench {

obs::Report run_ext_lublin_baseline(const Args& args_in, std::ostream& out) {
  Args args = args_in;
  if (args.study.systems.empty()) {
    args.study.systems = {"Theta", "Helios"};
  }
  if (!args.study.duration_days) args.study.duration_days = 10.0;
  banner(out, "Extension: Lublin-Feitelson'03 baseline vs calibrated "
              "generators",
         "the classic model approximates an HPC system's geometry but "
         "cannot produce DL shapes: no 1-GPU dominance, no sub-minute "
         "median runtimes, no burst arrivals, no failure states — the "
         "staleness the paper's cross-system analysis demonstrates");

  const auto study = make_study(args);
  std::vector<analysis::GeometryResult> geo;
  std::vector<analysis::ArrivalResult> arr;
  for (const auto& trace : study.traces()) {
    geo.push_back(analysis::analyze_geometry(trace));
    arr.push_back(analysis::analyze_arrivals(trace));
  }
  for (const auto& trace : study.traces()) {
    synth::LublinOptions options;
    options.spec = trace.spec();
    options.spec.name = "Lublin(" + trace.spec().name + ")";
    options.duration_days = args.days_or(10.0);
    const auto lublin = synth::generate_lublin(options);
    geo.push_back(analysis::analyze_geometry(lublin));
    arr.push_back(analysis::analyze_arrivals(lublin));
  }
  out << "--- geometry ---\n"
      << analysis::render_geometry(geo) << '\n'
      << "--- arrivals ---\n"
      << analysis::render_arrivals(arr);

  obs::Report report;
  report.harness = "ext_lublin_baseline";
  report.figure = "Extension: Lublin'03 baseline";
  for (const auto& g : geo) {
    report.set("median_runtime_s." + g.system, g.runtime_summary.median);
  }
  for (const auto& a : arr) {
    report.set("peak_hour_ratio." + a.system, a.peak_ratio);
  }
  return report;
}

}  // namespace lumos::bench
