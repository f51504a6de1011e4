// Extension harness: scheduling under node failures (lumos::fault) — how
// EASY vs adaptive relaxed backfilling degrade as nodes get flakier, and
// how much interrupted work each retry policy salvages. MTBF points are
// scales of the calibrated per-node MTBF (synth::fault_config_for):
// "inf" = fault-free baseline, "1x" = calibrated, "0.25x" = 4x flakier.
#include <ostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "fault/fault.hpp"
#include "harnesses.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "synth/calibration.hpp"
#include "synth/failure_model.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace lumos::bench {

namespace {

struct MtbfPoint {
  const char* label;
  double scale;  ///< multiplier on the calibrated MTBF; 0 = fault-free
};

std::string short_backfill(sim::BackfillKind kind) {
  return kind == sim::BackfillKind::Easy ? "easy" : "adaptive";
}

}  // namespace

obs::Report run_ext_node_failures(const Args& args_in, std::ostream& out) {
  Args args = args_in;
  if (args.study.systems.empty()) args.study.systems = {"Theta"};
  if (!args.study.duration_days) args.study.duration_days = 14.0;
  banner(out, "Extension: scheduling under node failures (lumos::fault)",
         "flakier nodes push waits up and goodput down; adaptive relaxed "
         "backfilling keeps its wait advantage under faults, and "
         "resubmit-with-backoff salvages work that Abandon writes off");

  obs::Report report;
  report.harness = "ext_node_failures";
  report.figure = "Extension: node failures";

  const auto study = make_study(args);
  util::TextTable t({"System", "Backfill", "MTBF", "Retry", "wait (s)",
                     "util", "fails", "interrupts", "abandoned",
                     "goodput share", "wasted core-h"});
  for (const auto& trace : study.traces()) {
    const auto cal = synth::calibration_for(trace.spec().name);
    const fault::FaultConfig calibrated = synth::fault_config_for(cal);
    const MtbfPoint points[] = {{"inf", 0.0}, {"1x", 1.0}, {"0.25x", 0.25}};
    for (auto kind : {sim::BackfillKind::Easy,
                      sim::BackfillKind::AdaptiveRelaxed}) {
      for (const auto& point : points) {
        const bool faulty = point.scale > 0.0;
        std::vector<fault::RetryPolicy> policies{
            fault::RetryPolicy::Resubmit};
        if (faulty) {
          policies.push_back(fault::RetryPolicy::RequeueFront);
          policies.push_back(fault::RetryPolicy::Abandon);
        }
        for (const auto policy : policies) {
          sim::SimConfig config;
          config.backfill.kind = kind;
          if (faulty) {
            config.fault = calibrated;
            config.fault.node_mtbf_s = calibrated.node_mtbf_s * point.scale;
            config.fault.retry = policy;
            config.fault.seed = args.study.seed;
          }
          const auto result = sim::simulate(trace, config);
          const auto metrics = sim::compute_metrics(trace, result);
          const double goodput = result.goodput_core_hours;
          const double wasted = result.wasted_core_hours;
          const double share =
              goodput + wasted > 0.0 ? goodput / (goodput + wasted) : 1.0;
          const std::string retry_label =
              faulty ? fault::to_string(policy) : std::string("none");
          const std::string key = trace.spec().name + "." +
                                  short_backfill(kind) + "." + point.label +
                                  "." + retry_label;
          report.set("goodput_share." + key, share);
          report.set("wasted_core_hours." + key, wasted);
          report.set("wait_s." + key, metrics.avg_wait);
          t.add_row({trace.spec().name, std::string(to_string(kind)),
                     point.label, retry_label,
                     util::fixed(metrics.avg_wait, 1),
                     util::fixed(metrics.utilization, 4),
                     std::to_string(result.counters.node_failures),
                     std::to_string(result.counters.jobs_interrupted),
                     std::to_string(result.abandoned_jobs),
                     util::fixed(share, 4), util::fixed(wasted, 1)});
        }
      }
    }
  }
  out << t.render();
  return report;
}

}  // namespace lumos::bench
