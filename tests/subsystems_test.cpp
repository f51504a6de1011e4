// Tests for the later subsystems: the Lublin-Feitelson baseline generator,
// node-level GPU packing/fragmentation, and the fault-aware study.
#include <gtest/gtest.h>

#include <cmath>

#include "core/fault_aware_study.hpp"
#include "sim/node_cluster.hpp"
#include "stats/descriptive.hpp"
#include "synth/generator.hpp"
#include "synth/lublin.hpp"
#include "trace/validate.hpp"
#include "util/error.hpp"

namespace lumos {
namespace {

// ------------------------------------------------------------- Lublin ----

synth::LublinOptions lublin_options(double days = 2.0) {
  synth::LublinOptions options;
  options.spec = trace::theta_spec();
  options.duration_days = days;
  return options;
}

TEST(Lublin, GeneratesValidSortedTrace) {
  const auto t = generate_lublin(lublin_options());
  EXPECT_GT(t.size(), 500u);
  EXPECT_TRUE(t.is_sorted_by_submit());
  EXPECT_TRUE(trace::validate(t).consistent());
}

TEST(Lublin, Deterministic) {
  const auto a = generate_lublin(lublin_options());
  const auto b = generate_lublin(lublin_options());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_DOUBLE_EQ(a[10].submit_time, b[10].submit_time);
  EXPECT_DOUBLE_EQ(a[10].run_time, b[10].run_time);
}

TEST(Lublin, SizesWithinCapacityWithSerialShare) {
  const auto t = generate_lublin(lublin_options());
  std::size_t serial = 0;
  for (const auto& j : t.jobs()) {
    EXPECT_GE(j.cores, 1u);
    EXPECT_LE(j.cores, t.spec().primary_capacity());
    serial += j.cores == 1;
  }
  // The published serial probability is ~0.24 (the model samples 2^u for
  // continuous u, so parallel sizes are near, not exactly, powers of two).
  const double frac = static_cast<double>(serial) / t.size();
  EXPECT_GT(frac, 0.1);
  EXPECT_LT(frac, 0.45);
}

TEST(Lublin, NoFailureStatesAndPaddedWalltime) {
  const auto t = generate_lublin(lublin_options());
  for (const auto& j : t.jobs()) {
    EXPECT_EQ(j.status, trace::JobStatus::Passed);
    EXPECT_GE(j.requested_time, j.run_time);
  }
}

TEST(Lublin, MissesDlShapes) {
  // The ablation claim: against the calibrated Helios generator, the
  // classic model has neither 1-GPU dominance nor burst arrivals — the
  // staleness the paper's cross-system analysis argues.
  synth::LublinOptions options;
  options.spec = trace::helios_spec();
  options.duration_days = 1.0;
  const auto lublin = generate_lublin(options);
  synth::GeneratorOptions gen;
  gen.duration_days = 1.0;
  const auto helios = synth::generate_system("Helios", gen);

  std::size_t lublin_single = 0, helios_single = 0;
  for (const auto& j : lublin.jobs()) lublin_single += j.cores == 1;
  for (const auto& j : helios.jobs()) helios_single += j.cores == 1;
  EXPECT_LT(static_cast<double>(lublin_single) / lublin.size(), 0.5);
  EXPECT_GT(static_cast<double>(helios_single) / helios.size(), 0.6);

  // Burstiness: the share of gaps within 10 s.
  auto burst_share = [](const trace::Trace& t) {
    const auto gaps = t.interarrival_times();
    std::size_t n = 0;
    for (double g : gaps) n += g <= 10.0;
    return static_cast<double>(n) / std::max<std::size_t>(1, gaps.size());
  };
  EXPECT_LT(burst_share(lublin), 0.4);
  EXPECT_GT(burst_share(helios), 0.7);
}

// -------------------------------------------------------- NodeCluster ----

TEST(NodeCluster, SingleNodeJobsMustFitOneNode) {
  sim::NodeCluster c(2, 8);
  // 12 free GPUs split 8+4 cannot host a 6-GPU job after a 4-GPU job
  // lands... construct: place 4 GPUs (one node now has 4 free).
  auto a = c.place(4);
  ASSERT_EQ(a.size(), 1u);
  auto b = c.place(6);  // fits on the idle node
  ASSERT_EQ(b.size(), 1u);
  EXPECT_NE(a[0].node, b[0].node);
  // Now 4+2 free across nodes: a 5-GPU job cannot be placed even though
  // 6 GPUs are free in total — fragmentation.
  EXPECT_EQ(c.free_gpus(), 6u);
  EXPECT_FALSE(c.can_place(5));
  // A 4-GPU job still fits.
  EXPECT_TRUE(c.can_place(4));
}

TEST(NodeCluster, GangPlacementNeedsWholeNodes) {
  sim::NodeCluster c(4, 8);
  auto small = c.place(1);  // dirties one node
  ASSERT_FALSE(small.empty());
  // 24 GPUs needed = 3 whole nodes; only 3 idle remain: fits exactly.
  EXPECT_TRUE(c.can_place(24));
  // 25 needs 3 whole + 1 GPU remainder; the dirty node has 7 free: fits.
  EXPECT_TRUE(c.can_place(25));
  // 31 needs 3 whole + 7 remainder: dirty node has exactly 7 free: fits.
  EXPECT_TRUE(c.can_place(31));
  // 32 needs 4 whole nodes: impossible now.
  EXPECT_FALSE(c.can_place(32));
  c.release(small);
  EXPECT_TRUE(c.can_place(32));
}

TEST(NodeCluster, PlaceAndReleaseRestoreState) {
  sim::NodeCluster c(3, 8, sim::PackingPolicy::FirstFit);
  const auto before = c.free_gpus();
  auto slices = c.place(19);  // 2 whole + 3 remainder
  ASSERT_EQ(slices.size(), 3u);
  EXPECT_EQ(c.free_gpus(), before - 19);
  c.release(slices);
  EXPECT_EQ(c.free_gpus(), before);
}

TEST(NodeCluster, BestFitPrefersTightNode) {
  sim::NodeCluster c(2, 8, sim::PackingPolicy::BestFit);
  auto a = c.place(5);  // node X: 3 free
  ASSERT_FALSE(a.empty());
  auto b = c.place(2);  // best-fit -> the node with 3 free
  ASSERT_FALSE(b.empty());
  EXPECT_EQ(b[0].node, a[0].node);
}

TEST(NodeCluster, WorstFitSpreads) {
  sim::NodeCluster c(2, 8, sim::PackingPolicy::WorstFit);
  auto a = c.place(5);
  ASSERT_FALSE(a.empty());
  auto b = c.place(2);  // worst-fit -> the idle node
  ASSERT_FALSE(b.empty());
  EXPECT_NE(b[0].node, a[0].node);
}

TEST(NodeCluster, RejectsInvalid) {
  EXPECT_THROW(sim::NodeCluster(0, 8), InvalidArgument);
  sim::NodeCluster c(2, 8);
  EXPECT_FALSE(c.can_place(0));
  EXPECT_FALSE(c.can_place(17));
  EXPECT_TRUE(c.place(17).empty());
}

TEST(PackingSim, PooledMatchesUnconstrainedStarts) {
  synth::GeneratorOptions options;
  options.duration_days = 1.0;
  options.max_jobs = 2000;
  const auto trace = synth::generate_system("Helios", options);
  sim::PackingConfig pooled;
  pooled.pooled = true;
  const auto base = sim::simulate_packing(trace, pooled);
  EXPECT_EQ(base.jobs, trace.size());
  EXPECT_GE(base.utilization, 0.0);

  sim::PackingConfig packed;
  const auto frag = sim::simulate_packing(trace, packed);
  EXPECT_EQ(frag.jobs, trace.size());
  // Placement constraints can only delay starts.
  EXPECT_GE(frag.avg_wait + 1e-9, base.avg_wait);
}

TEST(PackingSim, RequiresSortedTrace) {
  trace::Trace t(trace::philly_spec());
  trace::Job a;
  a.submit_time = 10;
  trace::Job b;
  b.submit_time = 0;
  t.add(a);
  t.add(b);
  EXPECT_THROW((void)sim::simulate_packing(t, sim::PackingConfig{}),
               InvalidArgument);
}

// --------------------------------------------------------- FaultAware ----

TEST(FaultAware, ThresholdSweepIsMonotoneInAction) {
  synth::GeneratorOptions options;
  options.duration_days = 6.0;
  options.max_jobs = 6000;
  const auto trace = synth::generate_system("Philly", options);
  const auto result = core::run_fault_aware_study(trace);
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_GT(result.total_doomed_core_hours, 0.0);
  EXPECT_LT(result.total_doomed_core_hours, result.total_core_hours);
  // Lower thresholds act on at least as many jobs and recover at least as
  // much waste.
  for (std::size_t i = 1; i < result.rows.size(); ++i) {
    EXPECT_GE(result.rows[i - 1].stopped_doomed +
                  result.rows[i - 1].stopped_passed,
              result.rows[i].stopped_doomed + result.rows[i].stopped_passed);
    EXPECT_GE(result.rows[i - 1].saved_core_hours + 1e-9,
              result.rows[i].saved_core_hours);
  }
  EXPECT_FALSE(render_fault_aware_study(result).empty());
}

TEST(FaultAware, RejectsTinyTrace) {
  trace::Trace t(trace::philly_spec());
  EXPECT_THROW(core::run_fault_aware_study(t), InvalidArgument);
}

}  // namespace
}  // namespace lumos
