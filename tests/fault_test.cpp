// Tests for the lumos::fault subsystem: the deterministic node
// failure/recovery process, degraded-capacity accounting in Cluster,
// fault injection in the simulator event loop (retry
// policies, checkpointing, goodput/waste bookkeeping), and the
// calibration bridge synth::fault_config_for.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "fault/fault.hpp"
#include "sim/cluster.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "synth/calibration.hpp"
#include "synth/failure_model.hpp"
#include "synth/generator.hpp"
#include "util/error.hpp"

namespace lumos {
namespace {

trace::SystemSpec tiny_spec(std::uint32_t cores, int vcs = 0) {
  trace::SystemSpec spec;
  spec.name = "Tiny";
  spec.nodes = cores;
  spec.cores = cores;
  spec.primary_kind = trace::ResourceKind::Cpu;
  spec.virtual_clusters = vcs;
  spec.has_walltime_estimates = true;
  return spec;
}

trace::Job job(double submit, double run, std::uint32_t cores,
               double requested = -1.0) {
  trace::Job j;
  j.submit_time = submit;
  j.run_time = run;
  j.cores = cores;
  j.requested_time = requested > 0 ? requested : run;
  return j;
}

trace::Trace make_trace(std::uint32_t capacity,
                        std::vector<trace::Job> jobs) {
  trace::Trace t(tiny_spec(capacity), std::move(jobs));
  t.sort_by_submit();
  return t;
}

/// A 2-day synthetic Theta trace — realistic shapes for end-to-end runs.
trace::Trace theta_trace() {
  synth::GeneratorOptions options;
  options.seed = 7;
  options.duration_days = 2.0;
  return synth::generate_system("Theta", options);
}

fault::FaultConfig aggressive_faults() {
  fault::FaultConfig f;
  f.node_mtbf_s = 4.0 * 3600.0;  // flaky enough to interrupt 2-day runs
  f.node_mttr_s = 900.0;
  f.nodes_per_partition = 8;
  f.seed = 1234;
  return f;
}

void expect_identical(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.backfilled_jobs, b.backfilled_jobs);
  EXPECT_EQ(a.goodput_core_hours, b.goodput_core_hours);
  EXPECT_EQ(a.wasted_core_hours, b.wasted_core_hours);
  EXPECT_EQ(a.interrupted_jobs, b.interrupted_jobs);
  EXPECT_EQ(a.abandoned_jobs, b.abandoned_jobs);
  EXPECT_EQ(a.counters.events, b.counters.events);
  EXPECT_EQ(a.counters.node_failures, b.counters.node_failures);
  EXPECT_EQ(a.counters.node_recoveries, b.counters.node_recoveries);
  EXPECT_EQ(a.counters.jobs_interrupted, b.counters.jobs_interrupted);
  EXPECT_EQ(a.counters.retries, b.counters.retries);
  EXPECT_EQ(a.counters.work_lost_core_hours, b.counters.work_lost_core_hours);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].start_time, b.outcomes[i].start_time);
    EXPECT_EQ(a.outcomes[i].backfilled, b.outcomes[i].backfilled);
    EXPECT_EQ(a.outcomes[i].interruptions, b.outcomes[i].interruptions);
    EXPECT_EQ(a.outcomes[i].abandoned, b.outcomes[i].abandoned);
  }
}

// -------------------------------------------------------- FaultProcess --

TEST(FaultProcess, StreamIsDeterministicAndOrdered) {
  fault::FaultConfig config;
  config.node_mtbf_s = 1000.0;
  config.node_mttr_s = 100.0;
  config.nodes_per_partition = 4;
  config.seed = 99;
  const std::array<std::uint64_t, 2> caps = {64, 32};

  fault::FaultProcess a(config, caps);
  fault::FaultProcess b(config, caps);
  double last_time = 0.0;
  for (int i = 0; i < 200; ++i) {
    const auto pa = a.peek();
    ASSERT_TRUE(pa.has_value());
    const auto ea = a.pop();
    const auto eb = b.pop();
    EXPECT_EQ(pa->time, ea.time);
    EXPECT_EQ(ea.time, eb.time);
    EXPECT_EQ(ea.partition, eb.partition);
    EXPECT_EQ(ea.node, eb.node);
    EXPECT_EQ(ea.cores, eb.cores);
    EXPECT_EQ(ea.failure, eb.failure);
    EXPECT_GE(ea.time, last_time);
    last_time = ea.time;
  }
}

TEST(FaultProcess, EachNodeAlternatesFailureRecovery) {
  fault::FaultConfig config;
  config.node_mtbf_s = 500.0;
  config.node_mttr_s = 50.0;
  config.nodes_per_partition = 3;
  const std::array<std::uint64_t, 1> caps = {30};

  fault::FaultProcess process(config, caps);
  std::map<std::uint32_t, bool> next_is_failure;  // per node
  for (int i = 0; i < 120; ++i) {
    const auto ev = process.pop();
    const auto [it, inserted] = next_is_failure.emplace(ev.node, true);
    EXPECT_EQ(ev.failure, it->second)
        << "node " << ev.node << " broke up/down alternation";
    it->second = !ev.failure;
    EXPECT_EQ(ev.cores, 10u);  // 30 cores over 3 nodes
  }
}

TEST(FaultProcess, SplitsRemainderToLowestNodes) {
  fault::FaultConfig config;
  config.node_mtbf_s = 1000.0;
  config.nodes_per_partition = 4;
  const std::array<std::uint64_t, 1> caps = {10};  // 3,3,2,2

  fault::FaultProcess process(config, caps);
  std::map<std::uint32_t, std::uint64_t> cores_of;
  for (int i = 0; i < 64; ++i) {
    const auto ev = process.pop();
    cores_of[ev.node] = ev.cores;
  }
  ASSERT_EQ(cores_of.size(), 4u);
  EXPECT_EQ(cores_of[0], 3u);
  EXPECT_EQ(cores_of[1], 3u);
  EXPECT_EQ(cores_of[2], 2u);
  EXPECT_EQ(cores_of[3], 2u);
}

TEST(FaultConfig, DisabledByDefault) {
  const fault::FaultConfig config;
  EXPECT_FALSE(config.enabled());
  fault::FaultConfig on;
  on.node_mtbf_s = 10.0;
  EXPECT_TRUE(on.enabled());
  on.nodes_per_partition = 0;
  EXPECT_FALSE(on.enabled());
}

// ---------------------------------------- degraded-capacity accounting --

TEST(Cluster, FailRecoverAccounting) {
  sim::Cluster c(100);
  ASSERT_TRUE(c.allocate(60));
  c.fail(30);
  EXPECT_EQ(c.free(), 10u);
  EXPECT_EQ(c.offline(), 30u);
  EXPECT_EQ(c.allocated(), 60u);
  EXPECT_FALSE(c.allocate(11));  // offline cores are not allocatable
  c.recover(30);
  EXPECT_EQ(c.free(), 40u);
  EXPECT_EQ(c.offline(), 0u);
  EXPECT_EQ(c.allocated(), 60u);
}

TEST(Cluster, FailRequiresFreeCores) {
  sim::Cluster c(100);
  ASSERT_TRUE(c.allocate(80));
  EXPECT_THROW(c.fail(30), InvalidArgument);  // only 20 free
  EXPECT_THROW(c.recover(1), InvalidArgument);  // nothing offline
}

TEST(Cluster, ReleaseClampsToOnlineCapacity) {
  sim::Cluster c(100);
  ASSERT_TRUE(c.allocate(60));
  c.fail(40);
  c.release(60);
  EXPECT_EQ(c.free(), 60u);  // capacity minus the 40 offline
  EXPECT_EQ(c.allocated(), 0u);
}

// ------------------------------------------------ simulator integration --

TEST(FaultSim, SameSeedIsBitIdentical) {
  const auto trace = theta_trace();
  sim::SimConfig config;
  config.fault = aggressive_faults();
  const auto a = sim::simulate(trace, config);
  const auto b = sim::simulate(trace, config);
  EXPECT_GT(a.counters.node_failures, 0u);
  expect_identical(a, b);
}

TEST(FaultSim, ZeroRateIsEquivalentToFaultFree) {
  const auto trace = theta_trace();
  sim::SimConfig plain;
  sim::SimConfig zeroed;
  zeroed.fault = aggressive_faults();
  zeroed.fault.node_mtbf_s = 0.0;  // disabled, everything else set
  const auto a = sim::simulate(trace, plain);
  const auto b = sim::simulate(trace, zeroed);
  expect_identical(a, b);
  EXPECT_EQ(b.counters.node_failures, 0u);
  EXPECT_EQ(b.goodput_core_hours, 0.0);
  EXPECT_EQ(b.wasted_core_hours, 0.0);
}

TEST(FaultSim, AuditCleanUnderAggressiveFaults) {
  const auto trace = theta_trace();
  sim::SimConfig config;
  config.fault = aggressive_faults();
  config.audit = true;
  config.audit_fatal = true;  // first violated invariant throws
  const auto result = sim::simulate(trace, config);
  EXPECT_EQ(result.counters.audit_failures, 0u);
  EXPECT_GT(result.counters.audits, 0u);
  EXPECT_GT(result.counters.node_failures, 0u);
}

TEST(FaultSim, InterruptionBookkeepingBalances) {
  const auto trace = theta_trace();
  for (const auto policy :
       {fault::RetryPolicy::Resubmit, fault::RetryPolicy::RequeueFront,
        fault::RetryPolicy::Abandon}) {
    sim::SimConfig config;
    config.fault = aggressive_faults();
    config.fault.retry = policy;
    const auto result = sim::simulate(trace, config);
    // Every interruption either retried the job or abandoned it.
    EXPECT_EQ(result.counters.jobs_interrupted,
              result.counters.retries + result.counters.jobs_abandoned)
        << fault::to_string(policy);
    EXPECT_EQ(result.abandoned_jobs, result.counters.jobs_abandoned)
        << fault::to_string(policy);
    EXPECT_GE(result.wasted_core_hours, 0.0);
    std::size_t interrupted = 0;
    std::size_t abandoned = 0;
    for (const auto& o : result.outcomes) {
      if (o.interruptions > 0) ++interrupted;
      if (o.abandoned) {
        ++abandoned;
        EXPECT_GE(o.interruptions, 1u);
      }
    }
    EXPECT_EQ(interrupted, result.interrupted_jobs);
    EXPECT_EQ(abandoned, result.abandoned_jobs);
  }
}

TEST(FaultSim, AbandonFirstInterruptionGivesUp) {
  const auto trace = theta_trace();
  sim::SimConfig config;
  config.fault = aggressive_faults();
  config.fault.retry = fault::RetryPolicy::Abandon;
  const auto result = sim::simulate(trace, config);
  EXPECT_GT(result.counters.jobs_interrupted, 0u);
  EXPECT_EQ(result.counters.retries, 0u);
  EXPECT_EQ(result.counters.jobs_abandoned, result.counters.jobs_interrupted);
  for (const auto& o : result.outcomes) {
    EXPECT_LE(o.interruptions, 1u);  // abandoned on the first hit
  }
}

TEST(FaultSim, CheckpointsReduceLostWork) {
  // One long job on a one-node partition: the first interruption happens
  // at the same fault-process time in both runs, so checkpointed work can
  // only shrink the rolled-back window.
  const auto trace = make_trace(100, {job(0.0, 50'000.0, 100)});
  sim::SimConfig base;
  base.fault.node_mtbf_s = 20'000.0;
  base.fault.node_mttr_s = 1'000.0;
  base.fault.nodes_per_partition = 1;
  base.fault.retry = fault::RetryPolicy::RequeueFront;
  base.fault.max_retries = 100;
  base.fault.seed = 5;

  sim::SimConfig checkpointed = base;
  checkpointed.fault.checkpoint_interval_s = 3600.0;

  const auto without = sim::simulate(trace, base);
  const auto with = sim::simulate(trace, checkpointed);
  ASSERT_GT(without.counters.jobs_interrupted, 0u);
  ASSERT_GT(with.counters.jobs_interrupted, 0u);
  EXPECT_LE(with.wasted_core_hours, without.wasted_core_hours);
  // With checkpoints the job finishes no later than without them.
  EXPECT_LE(with.makespan, without.makespan);
}

TEST(FaultSim, GoodputCountsCompletedWorkOnly) {
  const auto trace = theta_trace();
  sim::SimConfig config;
  config.fault = aggressive_faults();
  const auto result = sim::simulate(trace, config);
  double expected = 0.0;
  const auto& jobs = trace.jobs();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& o = result.outcomes[i];
    if (o.started() && !o.abandoned) {
      expected += jobs[i].run_time * jobs[i].cores / 3600.0;
    }
  }
  EXPECT_NEAR(result.goodput_core_hours, expected, 1e-6);
}

TEST(FaultSim, MetricsCarryFaultAccounting) {
  const auto trace = theta_trace();
  sim::SimConfig config;
  config.fault = aggressive_faults();
  const auto result = sim::simulate(trace, config);
  const auto metrics = sim::compute_metrics(trace, result);
  EXPECT_EQ(metrics.goodput_core_hours, result.goodput_core_hours);
  EXPECT_EQ(metrics.wasted_core_hours, result.wasted_core_hours);
  EXPECT_EQ(metrics.interrupted_jobs, result.interrupted_jobs);
  EXPECT_EQ(metrics.abandoned_jobs, result.abandoned_jobs);
}

// ------------------------------------------------- calibration bridge --

TEST(FailureModel, FaultConfigForIsDeterministicAndSane) {
  const auto theta = synth::calibration_for("Theta");
  const auto config = synth::fault_config_for(theta);
  const auto again = synth::fault_config_for(theta);
  EXPECT_EQ(config.node_mtbf_s, again.node_mtbf_s);
  EXPECT_EQ(config.node_mttr_s, again.node_mttr_s);
  EXPECT_GT(config.node_mtbf_s, 0.0);
  EXPECT_GT(config.node_mttr_s, 0.0);
  EXPECT_TRUE(config.enabled());
}

TEST(FailureModel, FlakierSystemsGetShorterMtbf) {
  // Philly's failure share is well above Theta's in the calibrations, so
  // its derived per-node MTBF must be shorter.
  const auto theta = synth::fault_config_for(synth::calibration_for("Theta"));
  const auto philly =
      synth::fault_config_for(synth::calibration_for("Philly"));
  EXPECT_LT(philly.node_mtbf_s, theta.node_mtbf_s);
}

}  // namespace
}  // namespace lumos
