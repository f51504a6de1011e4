// Extension harness: DAG workflows with straggler hedging (DESIGN.md §4h).
//
// Ablation grid over one synthetic layered-workflow trace:
//   tail   x  faults  x  policy        x  hedging
//   none      off        FCFS             off
//   heavy     on         critical-path    on
// publishing makespan, p99 workflow slowdown, hedge launch/win/cancel
// counts, and the wasted-vs-goodput core-hour split. The acceptance
// property is checked in-process: under heavy-tail injection (faults
// off), hedging must reduce the p99 workflow slowdown for every policy —
// the harness throws otherwise, so the suite fails loudly rather than
// publishing a regression.
#include <algorithm>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "harnesses.hpp"
#include "sim/simulator.hpp"
#include "stats/descriptive.hpp"
#include "synth/dag.hpp"
#include "trace/dag.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace lumos::bench {

namespace {

/// Per-workflow ideal spans: the critical path over straggler-free
/// runtimes — the denominator of workflow slowdown, independent of
/// scheduling, hedging, or injected tail.
struct WorkflowIdeal {
  std::vector<double> submit;  ///< earliest task submit per workflow
  std::vector<double> ideal;   ///< critical-path seconds per workflow
};

WorkflowIdeal workflow_ideals(const trace::Trace& trace,
                              std::size_t workflows) {
  const auto jobs = trace.jobs();
  std::vector<double> base(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    base[i] = jobs[i].hedge_run_time > 0.0 ? jobs[i].hedge_run_time
                                           : jobs[i].run_time;
  }
  const trace::DagIndex index = trace::build_dag_index(trace, base);
  WorkflowIdeal w;
  w.submit.assign(workflows, std::numeric_limits<double>::infinity());
  w.ideal.assign(workflows, 0.0);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::uint32_t wf = jobs[i].user;
    w.submit[wf] = std::min(w.submit[wf], jobs[i].submit_time);
    w.ideal[wf] = std::max(w.ideal[wf], index.critical_path[i]);
  }
  return w;
}

struct WorkflowSummary {
  double p99_slowdown = 0.0;
  std::size_t incomplete = 0;  ///< workflows with a never-finished task
};

WorkflowSummary summarize_workflows(const trace::Trace& trace,
                                    const sim::SimResult& result,
                                    const WorkflowIdeal& ideal) {
  const auto jobs = trace.jobs();
  const std::size_t workflows = ideal.ideal.size();
  std::vector<double> finish(workflows, 0.0);
  std::vector<std::uint8_t> complete(workflows, 1);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::uint32_t wf = jobs[i].user;
    const double f = result.outcomes[i].finish_time;
    if (f < 0.0) {
      complete[wf] = 0;
    } else {
      finish[wf] = std::max(finish[wf], f);
    }
  }
  WorkflowSummary s;
  std::vector<double> slowdowns;
  slowdowns.reserve(workflows);
  for (std::size_t w = 0; w < workflows; ++w) {
    if (complete[w] == 0) {
      ++s.incomplete;
      continue;
    }
    const double span = finish[w] - ideal.submit[w];
    slowdowns.push_back(span / std::max(ideal.ideal[w], 1.0));
  }
  if (!slowdowns.empty()) {
    s.p99_slowdown = stats::quantile(slowdowns, 0.99);
  }
  return s;
}

}  // namespace

obs::Report run_ext_dag_hedging(const Args& args, std::ostream& out) {
  banner(out, "Extension: DAG workflows with straggler hedging",
         "heavy-tail stragglers inflate p99 workflow slowdown; hedged "
         "duplicates claw most of it back for a bounded wasted-core-hour "
         "cost, and critical-path priority compounds the gain");

  obs::Report report;
  report.harness = "ext_dag_hedging";
  report.figure = "Extension: DAG hedging";

  synth::DagWorkloadOptions gen;
  gen.seed = args.study.seed;
  gen.workflows = args.smoke ? 24 : 160;
  const trace::Trace base_trace = synth::generate_dag_workload(gen);

  synth::HeavyTailOptions tail;
  tail.seed = args.study.seed + 1;

  struct TailPoint {
    const char* label;
    bool inject;
  };
  const TailPoint tails[] = {{"none", false}, {"heavy", true}};

  fault::FaultConfig faulty;
  faulty.node_mtbf_s = 4.0 * 3600.0;
  faulty.node_mttr_s = 1800.0;
  faulty.retry_backoff_s = 120.0;
  faulty.seed = args.study.seed;

  sim::HedgeConfig hedged;
  hedged.threshold = 1.25;
  hedged.min_planned_s = 60.0;

  util::TextTable t({"Tail", "Faults", "Policy", "Hedging", "p99 slowdown",
                     "makespan (h)", "launched", "won", "cancelled",
                     "wasted core-h", "goodput share"});
  // p99 by [tail][policy][hedge] for the fault-free acceptance check.
  double p99[2][2][2] = {};

  for (int ti = 0; ti < 2; ++ti) {
    const trace::Trace trace =
        tails[ti].inject ? synth::inject_heavy_tail(base_trace, tail)
                         : base_trace;
    const WorkflowIdeal ideal = workflow_ideals(trace, gen.workflows);
    for (const bool faults_on : {false, true}) {
      for (int pi = 0; pi < 2; ++pi) {
        const auto policy =
            pi == 0 ? sim::PolicyKind::Fcfs : sim::PolicyKind::CriticalPath;
        for (int hi = 0; hi < 2; ++hi) {
          sim::SimConfig config;
          config.policy = policy;
          if (faults_on) config.fault = faulty;
          if (hi == 1) config.hedge = hedged;
          const auto result = sim::simulate(trace, config);
          const WorkflowSummary s = summarize_workflows(trace, result, ideal);
          if (!faults_on) p99[ti][pi][hi] = s.p99_slowdown;

          const double goodput = result.goodput_core_hours;
          const double wasted = result.wasted_core_hours;
          const double share =
              goodput + wasted > 0.0 ? goodput / (goodput + wasted) : 1.0;
          const std::string key = std::string(tails[ti].label) + "." +
                                  (faults_on ? "faults" : "nofault") + "." +
                                  (pi == 0 ? "fcfs" : "cp") + "." +
                                  (hi == 0 ? "base" : "hedge");
          report.set("p99_slowdown." + key, s.p99_slowdown);
          report.set("makespan_s." + key, result.makespan);
          report.set("hedges.launched." + key,
                     static_cast<double>(result.counters.hedges_launched));
          report.set("hedges.won." + key,
                     static_cast<double>(result.counters.hedges_won));
          report.set("hedges.cancelled." + key,
                     static_cast<double>(result.counters.hedges_cancelled));
          report.set("wasted_core_hours." + key, wasted);
          report.set("goodput_core_hours." + key, goodput);
          report.set("events_cancelled." + key,
                     static_cast<double>(result.counters.events_cancelled));
          report.set("incomplete_workflows." + key,
                     static_cast<double>(s.incomplete));
          t.add_row({tails[ti].label, faults_on ? "on" : "off",
                     std::string(to_string(policy)), hi == 0 ? "off" : "on",
                     util::fixed(s.p99_slowdown, 3),
                     util::fixed(result.makespan / 3600.0, 2),
                     std::to_string(result.counters.hedges_launched),
                     std::to_string(result.counters.hedges_won),
                     std::to_string(result.counters.hedges_cancelled),
                     util::fixed(wasted, 1), util::fixed(share, 4)});
        }
      }
    }
  }
  out << t.render();

  // Acceptance: under heavy-tail injection (faults off), hedging must not
  // worsen the p99 workflow slowdown, for either policy.
  for (int pi = 0; pi < 2; ++pi) {
    const char* policy = pi == 0 ? "FCFS" : "CP";
    if (p99[1][pi][1] > p99[1][pi][0]) {
      throw Error("ext_dag_hedging: hedging worsened heavy-tail p99 "
                  "workflow slowdown under " +
                  std::string(policy) + " (" +
                  util::fixed(p99[1][pi][1], 3) + " > " +
                  util::fixed(p99[1][pi][0], 3) + ")");
    }
  }
  out << "acceptance: hedging reduced heavy-tail p99 slowdown ("
      << util::fixed(p99[1][0][0], 3) << " -> "
      << util::fixed(p99[1][0][1], 3) << " FCFS, "
      << util::fixed(p99[1][1][0], 3) << " -> "
      << util::fixed(p99[1][1][1], 3) << " CP)\n";
  return report;
}

}  // namespace lumos::bench
