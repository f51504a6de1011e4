// Unit tests for the scheduling simulator: profile, cluster, policies,
// backfill strategies and end-to-end scheduling semantics on hand-crafted
// traces with exactly known outcomes.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/auditor.hpp"
#include "sim/backfill.hpp"
#include "sim/cluster.hpp"
#include "sim/metrics.hpp"
#include "sim/policy.hpp"
#include "sim/profile.hpp"
#include "sim/simulator.hpp"
#include "synth/generator.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace lumos::sim {
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
               double requested = -1.0, std::int32_t vc = -1) {
  trace::Job j;
  j.submit_time = submit;
  j.run_time = run;
  j.cores = cores;
  j.requested_time = requested > 0 ? requested : run;
  j.virtual_cluster = vc;
  return j;
}

trace::Trace make_trace(std::uint32_t capacity, std::vector<trace::Job> jobs,
                        int vcs = 0) {
  trace::Trace t(tiny_spec(capacity, vcs), std::move(jobs));
  t.sort_by_submit();
  return t;
}

// -------------------------------------------------------------- Cluster --

TEST(Cluster, AllocateRelease) {
  Cluster c(100);
  EXPECT_EQ(c.total_capacity(), 100u);
  EXPECT_TRUE(c.allocate(60));
  EXPECT_EQ(c.free(), 40u);
  EXPECT_FALSE(c.allocate(41));
  EXPECT_EQ(c.free(), 40u);  // failed allocation changes nothing
  c.release(60);
  EXPECT_EQ(c.free(), 100u);
}

TEST(Cluster, FromSpecSplitsVirtualClusters) {
  auto spec = tiny_spec(100, 3);
  const auto c = Cluster::from_spec(spec);
  EXPECT_EQ(c.partitions(), 3u);
  EXPECT_EQ(c.total_capacity(), 100u);
  EXPECT_EQ(c.capacity(0), 34u);  // remainder spread over first partitions
  EXPECT_EQ(c.capacity(2), 33u);
}

TEST(Cluster, PartitionForMapsVc) {
  const auto c = Cluster::from_spec(tiny_spec(100, 4));
  EXPECT_EQ(c.partition_for(-1), 0u);
  EXPECT_EQ(c.partition_for(2), 2u);
  EXPECT_EQ(c.partition_for(6), 2u);  // wraps
}

TEST(Cluster, RejectsZeroCapacity) {
  EXPECT_THROW(Cluster(std::vector<std::uint64_t>{0}), InvalidArgument);
}

// -------------------------------------------------------------- Profile --

TEST(Profile, StartsFullyFree) {
  const ResourceProfile p(0.0, 10);
  EXPECT_EQ(p.free_at(0.0), 10u);
  EXPECT_EQ(p.free_at(1e9), 10u);
  EXPECT_DOUBLE_EQ(p.earliest_start(0.0, 100.0, 10), 0.0);
}

TEST(Profile, ReserveCreatesSteps) {
  ResourceProfile p(0.0, 10);
  p.reserve(5.0, 15.0, 4);
  EXPECT_EQ(p.free_at(0.0), 10u);
  EXPECT_EQ(p.free_at(5.0), 6u);
  EXPECT_EQ(p.free_at(14.9), 6u);
  EXPECT_EQ(p.free_at(15.0), 10u);
}

TEST(Profile, EarliestStartWaitsForRelease) {
  ResourceProfile p(0.0, 10);
  p.reserve(0.0, 100.0, 8);  // only 2 free until t=100
  EXPECT_DOUBLE_EQ(p.earliest_start(0.0, 50.0, 2), 0.0);
  EXPECT_DOUBLE_EQ(p.earliest_start(0.0, 50.0, 3), 100.0);
}

TEST(Profile, EarliestStartNeedsContinuousWindow) {
  ResourceProfile p(0.0, 10);
  p.reserve(50.0, 60.0, 9);  // a spike at t=50
  // 5 cores for 100s cannot fit before the spike; must wait until t=60.
  EXPECT_DOUBLE_EQ(p.earliest_start(0.0, 100.0, 5), 60.0);
  // 1 core fits through the spike.
  EXPECT_DOUBLE_EQ(p.earliest_start(0.0, 100.0, 1), 0.0);
}

TEST(Profile, OversizedNeverFits) {
  const ResourceProfile p(0.0, 10);
  EXPECT_GE(p.earliest_start(0.0, 1.0, 11), kTimeInfinity);
}

TEST(Profile, ReserveClampsAtZero) {
  ResourceProfile p(0.0, 10);
  p.reserve(0.0, 10.0, 15);  // over-reserve clamps
  EXPECT_EQ(p.free_at(5.0), 0u);
}

// --------------------------------------------------------------- Policy --

TEST(Policy, FcfsOrdersBySubmit) {
  PolicyJobView a{10.0, 0.0, 100.0, 1};
  PolicyJobView b{20.0, 0.0, 1.0, 1};
  EXPECT_LT(policy_score(PolicyKind::Fcfs, a),
            policy_score(PolicyKind::Fcfs, b));
}

TEST(Policy, SjfPrefersShortRequests) {
  PolicyJobView a{0.0, 0.0, 100.0, 1};
  PolicyJobView b{0.0, 0.0, 50.0, 1};
  EXPECT_LT(policy_score(PolicyKind::Sjf, b),
            policy_score(PolicyKind::Sjf, a));
}

TEST(Policy, Wfp3FavoursLongWaiters) {
  PolicyJobView waited{0.0, 1000.0, 100.0, 4};
  PolicyJobView fresh{0.0, 10.0, 100.0, 4};
  EXPECT_LT(policy_score(PolicyKind::Wfp3, waited),
            policy_score(PolicyKind::Wfp3, fresh));
}

TEST(Policy, SafPrefersSmallArea) {
  PolicyJobView small{0.0, 0.0, 10.0, 2};
  PolicyJobView big{0.0, 0.0, 10.0, 200};
  EXPECT_LT(policy_score(PolicyKind::Saf, small),
            policy_score(PolicyKind::Saf, big));
}

TEST(Policy, ParseRoundTrip) {
  for (auto p : {PolicyKind::Fcfs, PolicyKind::Sjf, PolicyKind::Wfp3,
                 PolicyKind::Unicep, PolicyKind::Saf}) {
    EXPECT_EQ(policy_from_string(std::string(to_string(p))), p);
  }
  EXPECT_THROW((void)policy_from_string("bogus"), InvalidArgument);
}

// ------------------------------------------------------------- Backfill --

TEST(Backfill, ParseRoundTrip) {
  for (auto b : {BackfillKind::None, BackfillKind::Easy,
                 BackfillKind::Conservative, BackfillKind::Relaxed,
                 BackfillKind::AdaptiveRelaxed}) {
    EXPECT_EQ(backfill_from_string(to_string(b)), b);
  }
  EXPECT_THROW((void)backfill_from_string("wat"), InvalidArgument);
}

TEST(Backfill, EffectiveFactorShapes) {
  BackfillConfig config;
  config.relax_factor = 0.10;
  config.kind = BackfillKind::Relaxed;
  EXPECT_DOUBLE_EQ(effective_relax_factor(config, 5, 10), 0.10);

  config.kind = BackfillKind::AdaptiveRelaxed;
  config.adaptive_shape = AdaptiveShape::Linear;
  EXPECT_DOUBLE_EQ(effective_relax_factor(config, 5, 10), 0.05);  // Eq. (1)
  EXPECT_DOUBLE_EQ(effective_relax_factor(config, 10, 10), 0.10);
  EXPECT_DOUBLE_EQ(effective_relax_factor(config, 0, 10), 0.0);
  EXPECT_DOUBLE_EQ(effective_relax_factor(config, 20, 10), 0.10);  // clamped

  config.adaptive_shape = AdaptiveShape::Quadratic;
  EXPECT_DOUBLE_EQ(effective_relax_factor(config, 5, 10), 0.025);
  config.adaptive_shape = AdaptiveShape::Sqrt;
  EXPECT_NEAR(effective_relax_factor(config, 5, 10), 0.10 / std::sqrt(2.0),
              1e-12);

  config.kind = BackfillKind::Easy;
  EXPECT_DOUBLE_EQ(effective_relax_factor(config, 5, 10), 0.0);
}

// ------------------------------------------------------------ Simulator --

TEST(Simulator, FcfsSequentialWhenFull) {
  // Capacity 10; two 10-core jobs: second waits for the first.
  auto t = make_trace(10, {job(0, 100, 10), job(1, 50, 10)});
  const auto r = simulate(t, SimConfig{});
  EXPECT_DOUBLE_EQ(r.outcomes[0].start_time, 0.0);
  EXPECT_DOUBLE_EQ(r.outcomes[1].start_time, 100.0);
  EXPECT_DOUBLE_EQ(r.makespan, 150.0);
}

TEST(Simulator, ParallelWhenFits) {
  auto t = make_trace(10, {job(0, 100, 4), job(0, 100, 4)});
  const auto r = simulate(t, SimConfig{});
  EXPECT_DOUBLE_EQ(r.outcomes[0].start_time, 0.0);
  EXPECT_DOUBLE_EQ(r.outcomes[1].start_time, 0.0);
}

TEST(Simulator, NoBackfillBlocksBehindHead) {
  // Job0 uses 8/10 cores for 100s. Job1 needs 4 (blocked). Job2 needs 1
  // and could run, but backfill=None must keep it behind job1.
  auto t = make_trace(10, {job(0, 100, 8), job(1, 10, 4), job(2, 10, 1)});
  SimConfig config;
  config.backfill.kind = BackfillKind::None;
  const auto r = simulate(t, config);
  EXPECT_DOUBLE_EQ(r.outcomes[1].start_time, 100.0);
  EXPECT_GE(r.outcomes[2].start_time, 100.0);
  EXPECT_EQ(r.backfilled_jobs, 0u);
  EXPECT_EQ(r.max_queue_length, 2u);  // job1 and job2 wait behind job0
}

TEST(Simulator, EasyBackfillsShortJob) {
  // Same setup; EASY lets job2 (1 core, ends before job0) jump ahead.
  auto t = make_trace(10, {job(0, 100, 8), job(1, 10, 4), job(2, 10, 1)});
  SimConfig config;
  config.backfill.kind = BackfillKind::Easy;
  const auto r = simulate(t, config);
  EXPECT_DOUBLE_EQ(r.outcomes[2].start_time, 2.0);  // backfilled at arrival
  EXPECT_TRUE(r.outcomes[2].backfilled);
  EXPECT_DOUBLE_EQ(r.outcomes[1].start_time, 100.0);  // head not delayed
  EXPECT_EQ(r.backfilled_jobs, 1u);
}

TEST(Simulator, EasyRefusesDelayingBackfill) {
  // Candidate runs past the shadow and does not fit in extra cores.
  // Job0: 8 cores 100s. Head job1: 4 cores => shadow t=100, extra = 10-4=6?
  // free at shadow = 10 (job0 done) => extra = 6. Candidate needs 7 cores,
  // 200 s => neither ends before shadow nor fits extra: must NOT start.
  auto t = make_trace(10, {job(0, 100, 8), job(1, 10, 4), job(2, 200, 7)});
  SimConfig config;
  config.backfill.kind = BackfillKind::Easy;
  const auto r = simulate(t, config);
  EXPECT_DOUBLE_EQ(r.outcomes[1].start_time, 100.0);
  EXPECT_GE(r.outcomes[2].start_time, 100.0);
  EXPECT_DOUBLE_EQ(r.outcomes[1].reservation_delay(), 0.0);
}

TEST(Simulator, EasyAllowsExtraCoreBackfill) {
  // Candidate runs long but fits in cores the head will not need.
  auto t = make_trace(10, {job(0, 100, 8), job(1, 10, 4), job(2, 500, 2)});
  SimConfig config;
  config.backfill.kind = BackfillKind::Easy;
  const auto r = simulate(t, config);
  EXPECT_DOUBLE_EQ(r.outcomes[2].start_time, 2.0);
  EXPECT_DOUBLE_EQ(r.outcomes[1].start_time, 100.0);  // still on time
}

TEST(Simulator, EasyNeverViolatesUnderFcfs) {
  auto t = make_trace(16, {job(0, 100, 12), job(1, 300, 8), job(2, 50, 4),
                           job(3, 80, 2), job(4, 400, 16), job(5, 10, 1)});
  SimConfig config;
  config.backfill.kind = BackfillKind::Easy;
  const auto r = simulate(t, config);
  const auto m = compute_metrics(t, r);
  EXPECT_EQ(m.violated_jobs, 0u);
}

TEST(Simulator, RelaxedCanDelayHeadWithinAllowance) {
  // Force a relaxed-only backfill: job0 holds 8/10 cores until t=100; the
  // head (job1) needs all 10 (shadow = 100, extra = 0). The candidate
  // (2 cores, 150 s) arrives at t=90 after the head has waited 89 s, so a
  // factor-10 allowance (890 s) admits it even though it pushes the head
  // to t=240.
  auto t = make_trace(10, {job(0, 100, 8), job(1, 100, 10),
                           job(90, 150, 2)});
  SimConfig config;
  config.backfill.kind = BackfillKind::Relaxed;
  config.backfill.relax_factor = 10.0;
  const auto r = simulate(t, config);
  EXPECT_TRUE(r.outcomes[2].backfilled);
  EXPECT_DOUBLE_EQ(r.outcomes[2].start_time, 90.0);
  EXPECT_DOUBLE_EQ(r.outcomes[1].start_time, 240.0);
  EXPECT_DOUBLE_EQ(r.outcomes[1].reservation_delay(), 140.0);
}

TEST(Simulator, ConservativeStartsReservedJobs) {
  auto t = make_trace(10, {job(0, 100, 8), job(1, 10, 4), job(2, 10, 1)});
  SimConfig config;
  config.backfill.kind = BackfillKind::Conservative;
  const auto r = simulate(t, config);
  EXPECT_DOUBLE_EQ(r.outcomes[2].start_time, 2.0);
  EXPECT_DOUBLE_EQ(r.outcomes[1].start_time, 100.0);
}

TEST(Simulator, ConservativeLabelsBackfillsAgainstPassHead) {
  // Regression: two jobs start in the same conservative pass. The head of
  // the pass (job0) is not a backfill; job1, which starts alongside it, is.
  // The old loop compared each job against queue.front() *after* earlier
  // erasures, so job1 saw itself at the front and was mislabeled.
  auto t = make_trace(10, {job(0, 100, 4), job(0, 100, 4)});
  SimConfig config;
  config.backfill.kind = BackfillKind::Conservative;
  const auto r = simulate(t, config);
  EXPECT_DOUBLE_EQ(r.outcomes[0].start_time, 0.0);
  EXPECT_DOUBLE_EQ(r.outcomes[1].start_time, 0.0);
  EXPECT_FALSE(r.outcomes[0].backfilled);
  EXPECT_TRUE(r.outcomes[1].backfilled);
  EXPECT_EQ(r.backfilled_jobs, 1u);
}

TEST(Simulator, ConservativeLabelsWhenHeadBlocked) {
  // When the head stays blocked, every job that starts around it is a
  // backfill — unchanged from the old labeling.
  auto t = make_trace(10, {job(0, 100, 8), job(1, 300, 4), job(2, 10, 1),
                           job(2, 10, 1)});
  SimConfig config;
  config.backfill.kind = BackfillKind::Conservative;
  const auto r = simulate(t, config);
  EXPECT_DOUBLE_EQ(r.outcomes[1].start_time, 100.0);  // blocked head
  EXPECT_TRUE(r.outcomes[2].backfilled);
  EXPECT_TRUE(r.outcomes[3].backfilled);
  EXPECT_EQ(r.backfilled_jobs, 2u);
}

TEST(Simulator, OversizedJobSkipped) {
  auto t = make_trace(10, {job(0, 10, 20), job(1, 10, 5)});
  const auto r = simulate(t, SimConfig{});
  EXPECT_FALSE(r.outcomes[0].started());
  EXPECT_TRUE(r.outcomes[1].started());
  EXPECT_EQ(r.skipped_oversized, 1u);
}

TEST(Simulator, VirtualClustersIsolate) {
  // 2 VCs of 5 cores each. Two 5-core jobs in VC0 must serialise even
  // though VC1 sits idle (the Philly fragmentation effect).
  auto t = make_trace(10, {job(0, 100, 5, -1, 0), job(1, 100, 5, -1, 0)}, 2);
  const auto r = simulate(t, SimConfig{});
  EXPECT_DOUBLE_EQ(r.outcomes[0].start_time, 0.0);
  EXPECT_DOUBLE_EQ(r.outcomes[1].start_time, 100.0);
}

TEST(Simulator, PlanningUsesWalltimeNotOracle) {
  // Job0 requests 1000s but actually runs 10s. EASY computes the shadow at
  // t=1000, so a 500s candidate can backfill immediately; it then finishes
  // long before the pessimistic plan.
  auto t = make_trace(10, {job(0, 10, 8, 1000), job(1, 10, 4, 1000),
                           job(2, 500, 2, 500)});
  SimConfig config;
  config.backfill.kind = BackfillKind::Easy;
  const auto r = simulate(t, config);
  EXPECT_TRUE(r.outcomes[2].backfilled);
  // Head starts when job0 actually ends (t=10), earlier than its promise.
  EXPECT_DOUBLE_EQ(r.outcomes[1].start_time, 10.0);
}

TEST(Simulator, RequiresSortedTrace) {
  trace::Trace t(tiny_spec(10));
  t.add(job(10, 1, 1));
  t.add(job(0, 1, 1));
  EXPECT_THROW((void)simulate(t, SimConfig{}), InvalidArgument);
}

TEST(Simulator, EmptyTrace) {
  auto t = make_trace(10, {});
  const auto r = simulate(t, SimConfig{});
  EXPECT_TRUE(r.outcomes.empty());
  EXPECT_DOUBLE_EQ(r.makespan, 0.0);
}

// -------------------------------------------------- Auditor & counters --

TEST(Auditor, PassesOnEverySeedConfig) {
  // The invariant auditor (core accounting, queue accounting, disjointness,
  // incremental-profile equivalence) must hold after every event for every
  // policy × backfill combination on a realistic workload.
  synth::GeneratorOptions options;
  options.duration_days = 2.0;
  const auto trace = synth::generate_system("Theta", options);
  for (auto p : {PolicyKind::Fcfs, PolicyKind::Sjf, PolicyKind::Wfp3,
                 PolicyKind::Unicep, PolicyKind::Saf}) {
    for (auto b : {BackfillKind::None, BackfillKind::Easy,
                   BackfillKind::Conservative, BackfillKind::Relaxed,
                   BackfillKind::AdaptiveRelaxed}) {
      SimConfig config;
      config.policy = p;
      config.backfill.kind = b;
      config.audit = true;
      SimResult r;
      ASSERT_NO_THROW(r = simulate(trace, config))
          << to_string(p) << "/" << to_string(b);
      EXPECT_GT(r.counters.audits, 0u);
      EXPECT_EQ(r.counters.audit_failures, 0u);
    }
  }
}

TEST(Auditor, AuditedRunMatchesUnauditedRun) {
  synth::GeneratorOptions options;
  options.duration_days = 2.0;
  const auto trace = synth::generate_system("BlueWaters", options);
  SimConfig config;
  config.backfill.kind = BackfillKind::AdaptiveRelaxed;
  const auto plain = simulate(trace, config);
  config.audit = true;
  const auto audited = simulate(trace, config);
  ASSERT_EQ(plain.outcomes.size(), audited.outcomes.size());
  for (std::size_t i = 0; i < plain.outcomes.size(); ++i) {
    EXPECT_EQ(plain.outcomes[i].start_time, audited.outcomes[i].start_time);
    EXPECT_EQ(plain.outcomes[i].first_reservation,
              audited.outcomes[i].first_reservation);
    EXPECT_EQ(plain.outcomes[i].backfilled, audited.outcomes[i].backfilled);
  }
}

TEST(Auditor, DetectsQueuedAndRunningOverlap) {
  SimCounters counters;
  SimAuditor auditor(counters, /*jobs=*/4);
  Cluster cluster(10);
  ASSERT_TRUE(cluster.allocate(4));
  RunningJob r;
  r.cores = 4;
  r.index = 0;
  std::vector<std::vector<RunningJob>> running{{r}};
  std::vector<std::vector<std::uint32_t>> queues{{0u}};  // same job queued
  EXPECT_THROW(auditor.check(cluster, queues, running, 1), InternalError);
  EXPECT_EQ(counters.audit_failures, 1u);
}

TEST(Auditor, DetectsCoreAccountingDrift) {
  SimCounters counters;
  SimAuditor auditor(counters, /*jobs=*/4, /*fatal=*/false);
  Cluster cluster(10);
  ASSERT_TRUE(cluster.allocate(6));  // cluster says 6 allocated...
  RunningJob r;
  r.cores = 4;  // ...but the running set only accounts for 4
  r.index = 1;
  std::vector<std::vector<RunningJob>> running{{r}};
  std::vector<std::vector<std::uint32_t>> queues{{}};
  auditor.check(cluster, queues, running, 0);  // non-fatal: counts only
  EXPECT_EQ(counters.audit_failures, 1u);
}

TEST(Auditor, DetectsQueueTallyMismatch) {
  SimCounters counters;
  SimAuditor auditor(counters, /*jobs=*/4);
  Cluster cluster(10);
  std::vector<std::vector<RunningJob>> running{{}};
  std::vector<std::vector<std::uint32_t>> queues{{2u, 3u}};
  EXPECT_THROW(auditor.check(cluster, queues, running, 5), InternalError);
  EXPECT_NO_THROW(auditor.check(cluster, queues, running, 2));
  EXPECT_EQ(counters.audit_failures, 1u);
}

TEST(Counters, TrackEventsAndSorts) {
  auto t = make_trace(10, {job(0, 100, 10), job(1, 10, 10), job(2, 10, 4),
                           job(3, 10, 4)});
  SimConfig config;  // FCFS never sorts
  const auto r = simulate(t, config);
  EXPECT_EQ(r.counters.arrivals, 4u);
  EXPECT_EQ(r.counters.completions, 4u);
  EXPECT_EQ(r.counters.events, 8u);
  EXPECT_EQ(r.counters.sort_invocations, 0u);
  EXPECT_GT(r.counters.scheduling_passes, 0u);

  config.policy = PolicyKind::Sjf;
  const auto sorted = simulate(t, config);
  EXPECT_GT(sorted.counters.sort_invocations, 0u);
  // Sorts only happen when membership changed, so passes bound them.
  EXPECT_LE(sorted.counters.sort_invocations,
            sorted.counters.scheduling_passes);
}

TEST(Counters, ProfileCacheServesRepeatPasses) {
  synth::GeneratorOptions options;
  options.duration_days = 2.0;
  const auto trace = synth::generate_system("Theta", options);
  SimConfig config;
  config.backfill.kind = BackfillKind::Conservative;
  const auto r = simulate(trace, config);
  EXPECT_GT(r.counters.profile_rebuilds, 0u);
  EXPECT_GT(r.counters.profile_cache_hits, 0u);
  EXPECT_EQ(r.counters.audits, 0u);  // audit off by default
}

// ------------------------------------------------------------ Determinism --

TEST(Determinism, RepeatedRunsBitIdentical) {
  synth::GeneratorOptions options;
  options.duration_days = 2.0;
  const auto trace = synth::generate_system("Theta", options);
  for (auto b : {BackfillKind::Easy, BackfillKind::Conservative,
                 BackfillKind::AdaptiveRelaxed}) {
    SimConfig config;
    config.policy = PolicyKind::Sjf;
    config.backfill.kind = b;
    const auto a = simulate(trace, config);
    const auto c = simulate(trace, config);
    ASSERT_EQ(a.outcomes.size(), c.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
      ASSERT_EQ(a.outcomes[i].start_time, c.outcomes[i].start_time);
      ASSERT_EQ(a.outcomes[i].first_reservation,
                c.outcomes[i].first_reservation);
      ASSERT_EQ(a.outcomes[i].backfilled, c.outcomes[i].backfilled);
    }
    EXPECT_EQ(a.backfilled_jobs, c.backfilled_jobs);
    EXPECT_EQ(a.makespan, c.makespan);
  }
}

TEST(Determinism, IdenticalAcrossThreadPoolSizes) {
  // The bench drivers fan simulations out over a ThreadPool; whole
  // results, counters included, must not depend on the pool size or
  // scheduling.
  synth::GeneratorOptions options;
  options.duration_days = 2.0;
  const auto trace = synth::generate_system("Theta", options);
  const std::vector<BackfillKind> kinds{
      BackfillKind::None, BackfillKind::Easy, BackfillKind::Conservative,
      BackfillKind::Relaxed, BackfillKind::AdaptiveRelaxed};
  auto run_with_pool = [&](std::size_t threads) {
    std::vector<SimResult> results(kinds.size());
    util::ThreadPool pool(threads);
    pool.parallel_for(0, kinds.size(), [&](std::size_t i) {
      SimConfig config;
      config.backfill.kind = kinds[i];
      results[i] = simulate(trace, config);
    });
    return results;
  };
  const auto serial = run_with_pool(1);
  for (const std::size_t threads : {4u, 8u}) {
    const auto wide = run_with_pool(threads);
    ASSERT_EQ(serial.size(), wide.size());
    for (std::size_t k = 0; k < serial.size(); ++k) {
      EXPECT_TRUE(serial[k] == wide[k])
          << to_string(kinds[k]) << " at " << threads << " threads";
    }
  }
}

// -------------------------------------------------------------- Metrics --

TEST(Metrics, ComputesExactValues) {
  auto t = make_trace(10, {job(0, 100, 10), job(0, 100, 10)});
  const auto r = simulate(t, SimConfig{});
  const auto m = compute_metrics(t, r);
  EXPECT_EQ(m.jobs, 2u);
  // starts at 0 and 100 -> waits 0 and 100.
  EXPECT_DOUBLE_EQ(m.avg_wait, 50.0);
  // bslds: 1.0 and (100+100)/100 = 2.0.
  EXPECT_DOUBLE_EQ(m.avg_bounded_slowdown, 1.5);
  // busy = 2*10*100 = 2000 core-s over 10 cores * 200 s.
  EXPECT_DOUBLE_EQ(m.utilization, 1.0);
  EXPECT_DOUBLE_EQ(m.makespan, 200.0);
  EXPECT_FALSE(m.to_string().empty());
}

TEST(Metrics, MismatchedResultThrows) {
  auto t = make_trace(10, {job(0, 1, 1)});
  SimResult r;
  EXPECT_THROW((void)compute_metrics(t, r), InvalidArgument);
}

// ----------------------------------------------------------- EventQueue --

struct TestEvent {
  EventKey k;
  [[nodiscard]] EventKey key() const noexcept { return k; }
};

TEST(EventQueue, ComparatorIsTheDocumentedTotalOrder) {
  // time, then kind Finish < Arrive < Fail, then id, then seq.
  const EventKey base{10.0, EventKind::Arrive, 5, 1};
  EXPECT_TRUE(event_before({9.0, EventKind::Fail, 99, 99}, base));
  EXPECT_TRUE(event_before({10.0, EventKind::Finish, 99, 99}, base));
  EXPECT_FALSE(event_before({10.0, EventKind::Fail, 0, 0}, base));
  EXPECT_TRUE(event_before({10.0, EventKind::Arrive, 4, 99}, base));
  EXPECT_TRUE(event_before({10.0, EventKind::Arrive, 5, 0}, base));
  EXPECT_FALSE(event_before(base, base));  // irreflexive
}

TEST(EventQueue, SameTimestampTiesPopInKindThenIdOrder) {
  // Regression for the pre-EventQueue behaviour where same-instant ties
  // fell to heap insertion order: push in scrambled order, expect the
  // documented order back.
  const std::vector<EventKey> expected = {
      {5.0, EventKind::Finish, 1, 0}, {5.0, EventKind::Finish, 2, 0},
      {5.0, EventKind::Arrive, 0, 0}, {5.0, EventKind::Arrive, 3, 0},
      {5.0, EventKind::Fail, 0, 0},   {5.0, EventKind::Fail, 0, 1},
  };
  EventQueue<TestEvent> q;
  q.push({expected[3]});
  q.push({expected[0]});
  q.push({expected[5]});
  q.push({expected[2]});
  q.push({expected[4]});
  q.push({expected[1]});
  for (const auto& want : expected) {
    ASSERT_FALSE(q.empty());
    const EventKey got = q.top().key();
    EXPECT_EQ(got.time, want.time);
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.seq, want.seq);
    q.pop();
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, FullSimulationAuditCleanAcrossPolicies) {
  // Every policy/backfill combination runs with the auditor checking
  // event-loop invariants after every event.
  synth::GeneratorOptions options;
  options.duration_days = 2.0;
  const auto trace = synth::generate_system("Theta", options);
  for (auto policy : {PolicyKind::Fcfs, PolicyKind::Sjf}) {
    for (auto b : {BackfillKind::None, BackfillKind::Easy,
                   BackfillKind::Conservative, BackfillKind::AdaptiveRelaxed}) {
      SimConfig config;
      config.policy = policy;
      config.backfill.kind = b;
      config.audit = true;
      const auto result = simulate(trace, config);
      EXPECT_EQ(result.counters.audit_failures, 0u)
          << to_string(policy) << " + " << to_string(b);
    }
  }
}

TEST(EventQueue, SameInstantCompletionsReleaseInJobOrder) {
  // Two same-size jobs end at exactly t=100 while a third that needs the
  // whole machine waits. Whatever order the finish events were pushed,
  // the loop drains the instant fully and starts the big job at 100.
  auto t = make_trace(10, {job(0, 100, 5), job(0, 100, 5), job(1, 10, 10)});
  const auto r = simulate(t, SimConfig{});
  EXPECT_DOUBLE_EQ(r.outcomes[2].start_time, 100.0);
  // Distinct instants: t=0 arrivals, t=1 arrival, t=100 (both finishes
  // drain in ONE batch), t=110 the big job's own finish.
  EXPECT_EQ(r.counters.event_batches, 4u);
}

}  // namespace
}  // namespace lumos::sim
