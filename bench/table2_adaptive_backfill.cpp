// Table II: scheduling performance of fixed relaxed backfilling vs the
// paper's adaptive relaxed backfilling (Eq. 1) on the walltime-bearing
// systems. --ablation additionally sweeps the adaptive factor shape
// (DESIGN.md §4.2) and publishes it as `ablation.<shape>.*.<system>`.
#include <ostream>
#include <string>

#include "common.hpp"
#include "core/backfill_study.hpp"
#include "harnesses.hpp"
#include "util/table.hpp"

namespace lumos::bench {

obs::Report run_table2_adaptive_backfill(const Args& args_in,
                                         std::ostream& out) {
  Args args = args_in;
  if (args.study.systems.empty()) {
    args.study.systems = {"BlueWaters", "Mira", "Theta"};
  }
  if (!args.study.duration_days) {
    args.study.duration_days = 45.0;  // keeps the full sweep minutes-fast
  }
  banner(out, "Table II: relaxed vs adaptive relaxed backfilling",
         "adaptive cuts the reservation-violation delay substantially "
         "(paper: 5% BW, 49% Mira, 13% Theta) while wait/bsld/util stay "
         "within a few percent");

  const auto study = make_study(args);
  const auto rows = core::run_backfill_study(study.traces());
  out << core::render_backfill_study(rows) << '\n';

  obs::Report report;
  report.harness = "table2_adaptive_backfill";
  report.figure = "Table 2";
  for (const auto& r : rows) {
    report.set("wait_improvement." + r.system, r.wait_improvement);
    report.set("bsld_improvement." + r.system, r.bsld_improvement);
    report.set("util_improvement." + r.system, r.util_improvement);
    report.set("violation_reduction." + r.system, r.violation_reduction);
  }

  if (args.ablation) {
    out << "Ablation: adaptive factor shape (Eq. 1 is linear):\n";
    util::TextTable t(
        {"System", "shape", "wait", "bsld", "util", "violation"});
    for (const auto& trace : study.traces()) {
      if (!trace.spec().has_walltime_estimates) continue;
      for (auto shape : {sim::AdaptiveShape::Linear,
                         sim::AdaptiveShape::Quadratic,
                         sim::AdaptiveShape::Sqrt}) {
        core::BackfillStudyConfig config;
        config.adaptive_shape = shape;
        const auto cmp = core::compare_backfill(trace, config);
        const std::string name(to_string(shape));
        const std::string& system = trace.spec().name;
        t.add_row({system, name, util::fixed(cmp.adaptive.avg_wait, 1),
                   util::fixed(cmp.adaptive.avg_bounded_slowdown, 2),
                   util::fixed(cmp.adaptive.utilization, 4),
                   util::fixed(cmp.adaptive.violation, 1)});
        const std::string prefix = "ablation." + name + ".";
        report.set(prefix + "wait." + system, cmp.adaptive.avg_wait);
        report.set(prefix + "bsld." + system,
                   cmp.adaptive.avg_bounded_slowdown);
        report.set(prefix + "util." + system, cmp.adaptive.utilization);
        report.set(prefix + "violation." + system, cmp.adaptive.violation);
      }
    }
    out << t.render();
  }
  return report;
}

}  // namespace lumos::bench
