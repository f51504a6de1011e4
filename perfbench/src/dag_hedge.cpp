// Workload `dag_hedge`: the 16-point grid of bench/ext_dag_hedging
// (heavy tail on/off x faults on/off x FCFS/critical-path x hedging
// on/off), scaled up to one seeded random-layered DAG workload of about
// 20k workflows. SWF cannot carry parent edges, so the inputs stay in
// memory: set-up is generation only.
//
// run():    sim::simulate + sim::compute_metrics at every grid point.
// traced(): the same calls with a span around each.
#include <string>
#include <vector>

#include "bench.hpp"
#include "synth/dag.hpp"

namespace perfbench {

namespace {

namespace sim = lumos::sim;
namespace synth = lumos::synth;

constexpr std::size_t kWorkflows = 20000;
/// The audited verification replays a prefix-sized workload from the same
/// seed: SimAuditor's DAG invariants cost O(jobs) per event, so an audit
/// of the full 280k-task workload would take the better part of an hour.
constexpr std::size_t kAuditWorkflows = 400;

struct GridPoint {
  bool heavy_tail = false;
  sim::SimConfig config;
};

/// The ext_dag_hedging grid, in its loop order.
std::vector<GridPoint> grid(std::uint64_t seed) {
  lumos::fault::FaultConfig faulty;
  faulty.node_mtbf_s = 4.0 * 3600.0;
  faulty.node_mttr_s = 1800.0;
  faulty.retry_backoff_s = 120.0;
  faulty.seed = seed;
  sim::HedgeConfig hedged;
  hedged.threshold = 1.25;
  hedged.min_planned_s = 60.0;
  std::vector<GridPoint> points;
  for (const bool heavy : {false, true}) {
    for (const bool faults : {false, true}) {
      for (const auto policy :
           {sim::PolicyKind::Fcfs, sim::PolicyKind::CriticalPath}) {
        for (const bool hedge : {false, true}) {
          GridPoint p;
          p.heavy_tail = heavy;
          p.config.policy = policy;
          if (faults) p.config.fault = faulty;
          if (hedge) p.config.hedge = hedged;
          points.push_back(p);
        }
      }
    }
  }
  return points;
}

std::pair<lumos::trace::Trace, lumos::trace::Trace> generate(
    std::uint64_t seed, std::size_t workflows) {
  synth::DagWorkloadOptions gen;
  gen.seed = seed;
  gen.workflows = workflows;
  lumos::trace::Trace base = synth::generate_dag_workload(gen);
  synth::HeavyTailOptions tail;
  tail.seed = seed + 1;
  lumos::trace::Trace heavy = synth::inject_heavy_tail(base, tail);
  return {std::move(base), std::move(heavy)};
}

class DagHedge final : public Workload {
 public:
  explicit DagHedge(const Context& ctx) : ctx_(ctx), grid_(grid(ctx.seed)) {}

  void setup(Tracer* tracer) override {
    Tracer::Scope s(tracer, "synth.generate");
    traces_.reset();
    traces_ = std::make_unique<Traces>(generate(ctx_.seed, kWorkflows));
  }

  [[nodiscard]] std::uint64_t input_seed() const override {
    return ctx_.seed;
  }

  Rep run() override {
    Rep rep;
    Digest d;
    for (const auto& p : grid_) {
      const auto& t = p.heavy_tail ? traces_->second : traces_->first;
      // Only the library calls are timed; digesting is the benchmark's.
      const Stopwatch watch;
      const sim::SimResult result = sim::simulate(t, p.config);
      const sim::SimMetrics metrics =
          sim::compute_metrics(t, result, p.config.bsld_bound);
      rep.wall_s += watch.wall_s();
      rep.cpu_s += watch.cpu_s();
      d.metrics(metrics);
      d.outcomes(result.outcomes);
      rep.jobs += static_cast<double>(t.size());
      rep.events += static_cast<double>(result.counters.events);
    }
    rep.digest = d.hex();
    return rep;
  }

  void verify(Checks& checks,
              std::map<std::string, std::string>& digests) override {
    // Audited replay of the plain point and of the richest one (heavy
    // tail, faults, critical path, hedging) on the audit-sized workload.
    const auto small = generate(ctx_.seed, kAuditWorkflows);
    Digest d;
    for (const std::size_t i : {std::size_t{0}, grid_.size() - 1}) {
      sim::SimConfig config = grid_[i].config;
      config.audit = true;
      config.audit_fatal = false;
      const auto& t = grid_[i].heavy_tail ? small.second : small.first;
      const sim::SimResult r = sim::simulate(t, config);
      checks.record(r.counters.audits > 0 && r.counters.audit_failures == 0,
                    "dag_hedge: audited replay of grid point " +
                        std::to_string(i) + " saw " +
                        std::to_string(r.counters.audit_failures) +
                        " invariant failures");
      d.outcomes(r.outcomes);
      d.counters(r.counters);
    }
    digests["audit_outcomes"] = d.hex();
  }

  TracedWall traced(Tracer& tracer, double untraced_median_s,
                    Checks& /*checks*/, Layers& layers) override {
    const auto start = Clock::now();
    const int run = tracer.begin("dag_hedge.run");
    for (const auto& p : grid_) {
      const auto& t = p.heavy_tail ? traces_->second : traces_->first;
      sim::SimResult result;
      {
        Tracer::Scope s(&tracer, "sim.simulate");
        result = sim::simulate(t, p.config);
      }
      {
        Tracer::Scope s(&tracer, "sim.compute_metrics");
        (void)sim::compute_metrics(t, result, p.config.bsld_bound);
      }
      add_sim_counters(layers, result);
    }
    tracer.end(run);
    const double traced_wall = seconds_since(start);
    const auto totals = tracer.layers(run);
    layers["sim.simulate_s"] = totals.at("sim.simulate").self_s;
    layers["sim.compute_metrics_s"] = totals.at("sim.compute_metrics").self_s;
    finish_sim_layers(layers);
    return {traced_wall, untraced_median_s};
  }

 private:
  using Traces = std::pair<lumos::trace::Trace, lumos::trace::Trace>;
  Context ctx_;
  std::vector<GridPoint> grid_;
  std::unique_ptr<Traces> traces_;
};

}  // namespace

std::unique_ptr<Workload> make_dag_hedge(const Context& ctx) {
  return std::make_unique<DagHedge>(ctx);
}

}  // namespace perfbench
