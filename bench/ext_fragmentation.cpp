// Extension harness: GPU fragmentation under node-level placement — the
// mechanism behind Takeaway 5's low DL utilization (and the paper's
// ref [46], "beware of fragmentation"). Compares an idealised GPU pool
// against gang placement on 8-GPU nodes with three packing policies.
#include <algorithm>
#include <ostream>

#include "common.hpp"
#include "harnesses.hpp"
#include "sim/node_cluster.hpp"
#include "util/table.hpp"

namespace lumos::bench {

obs::Report run_ext_fragmentation(const Args& args_in, std::ostream& out) {
  Args args = args_in;
  if (args.study.systems.empty()) {
    args.study.systems = {"Philly", "Helios"};
  }
  if (!args.study.duration_days) args.study.duration_days = 10.0;
  banner(out, "Extension: node-level GPU fragmentation (FCFS, no "
              "backfilling)",
         "gang placement on 8-GPU nodes strands capacity that the pooled "
         "model would use: waits rise and utilization drops versus the "
         "pool, with best-fit packing recovering part of the gap");

  obs::Report report;
  report.harness = "ext_fragmentation";
  report.figure = "Extension: GPU fragmentation";

  const auto study = make_study(args);
  for (const auto& source : study.traces()) {
    // Replay onto a cluster with 40% of the GPUs: fragmentation only
    // matters when capacity is contended, and the DL systems run at
    // moderate average load.
    trace::Trace trace(source.spec(),
                       std::vector<trace::Job>(source.jobs().begin(),
                                               source.jobs().end()));
    trace.spec().gpus = std::max<std::uint32_t>(8, source.spec().gpus * 2 / 5);
    trace.spec().cores =
        std::max<std::uint32_t>(8, source.spec().cores * 2 / 5);
    util::TextTable t({"placement", "avg wait (s)", "util", "blocked events",
                       "mean stranded GPUs"});
    sim::PackingConfig pooled;
    pooled.pooled = true;
    const auto base = sim::simulate_packing(trace, pooled);
    t.add_row({"pooled (ideal)", util::fixed(base.avg_wait, 1),
               util::fixed(base.utilization, 4), "-", "-"});
    for (auto policy : {sim::PackingPolicy::FirstFit,
                        sim::PackingPolicy::BestFit,
                        sim::PackingPolicy::WorstFit}) {
      sim::PackingConfig config;
      config.policy = policy;
      const auto m = sim::simulate_packing(trace, config);
      const std::string key =
          trace.spec().name + "." + std::string(to_string(policy));
      report.set("wait_penalty." + key, m.avg_wait - base.avg_wait);
      report.set("util_drop." + key, base.utilization - m.utilization);
      t.add_row({std::string(to_string(policy)), util::fixed(m.avg_wait, 1),
                 util::fixed(m.utilization, 4),
                 std::to_string(m.blocked_events),
                 util::fixed(m.mean_blocked_free_gpus, 1)});
    }
    out << "System " << trace.spec().name << " at 40% capacity ("
        << trace.size() << " jobs):\n"
        << t.render() << '\n';
  }
  return report;
}

}  // namespace lumos::bench
