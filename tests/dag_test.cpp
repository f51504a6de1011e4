// DAG precedence, straggler hedging, and event-queue cancellation tests
// (DESIGN.md §4h): tombstone churn bit-identity across queue backends,
// typed DAG validation errors, topological release on hand-crafted
// workflows with exactly known outcomes, hedge win/lose/denied
// lifecycles, fault x hedging composition under aggressive MTBF, the
// critical-path policy, and the synth workflow generators + heavy-tail
// injector.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "synth/dag.hpp"
#include "trace/dag.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace lumos {
namespace {

trace::SystemSpec tiny_spec(std::uint32_t cores) {
  trace::SystemSpec spec;
  spec.name = "Tiny";
  spec.nodes = cores;
  spec.cores = cores;
  spec.has_walltime_estimates = true;
  return spec;
}

trace::Job job(std::uint64_t id, double submit, double run,
               std::uint32_t cores, std::vector<std::uint64_t> parents = {},
               double requested = -1.0) {
  trace::Job j;
  j.id = id;
  j.submit_time = submit;
  j.run_time = run;
  j.cores = cores;
  j.requested_time = requested > 0 ? requested : run;
  j.parents = std::move(parents);
  return j;
}

trace::Trace make_trace(std::uint32_t capacity, std::vector<trace::Job> jobs) {
  trace::Trace t(tiny_spec(capacity), std::move(jobs));
  t.sort_by_submit();
  return t;
}

std::string thrown_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "";
}

// ------------------------------------------- EventQueue cancellation --

struct Ev {
  double time = 0.0;
  std::uint32_t id = 0;
  std::uint32_t seq = 0;
  sim::EventKind kind = sim::EventKind::Finish;
  [[nodiscard]] sim::EventKey key() const noexcept {
    return {time, kind, id, seq};
  }
};

// One randomized push/pop/cancel script must produce the pop sequence of
// a sorted reference model, with size() net of tombstones at every step.
// Push times mix a heavy tie cluster, duplicate-rich integer floors, a
// wide multi-day spread and a moderate uniform range, across the Finish,
// Arrive and Fail kinds, so ties are decided by kind, id and seq.
TEST(EventQueueCancel, ChurnMatchesSortedModel) {
  sim::EventQueue<Ev> q;
  std::vector<Ev> model;  // live, uncancelled entries
  util::Rng rng(20240808);
  std::uint32_t seq = 0;
  const auto model_min = [&]() {
    return std::min_element(model.begin(), model.end(),
                            [](const Ev& a, const Ev& b) {
                              return sim::event_before(a.key(), b.key());
                            });
  };
  const auto draw_time = [&]() {
    const double roll = rng.uniform();
    if (roll < 0.25) return 1000.0;  // heavy tie cluster
    if (roll < 0.5) return std::floor(rng.uniform(0.0, 100.0));
    if (roll < 0.75) return rng.uniform(0.0, 5.0e6);  // days of seconds
    return rng.uniform(0.0, 1e4);
  };
  for (int step = 0; step < 4000; ++step) {
    const double dice = rng.uniform();
    if (model.empty() || dice < 0.55) {
      const double time = draw_time();
      const Ev e{time, static_cast<std::uint32_t>(rng.uniform_index(64)),
                 seq++, static_cast<sim::EventKind>(rng.uniform_index(3))};
      q.push(e);
      model.push_back(e);
    } else if (dice < 0.80) {
      const auto it = model_min();
      const Ev expected = *it;
      model.erase(it);
      ASSERT_EQ(q.top().key(), expected.key());
      q.pop();
    } else {
      const auto it = model.begin() +
                      static_cast<std::ptrdiff_t>(
                          rng.uniform_index(model.size()));
      q.cancel(it->key());
      model.erase(it);
    }
    ASSERT_EQ(q.size(), model.size());
  }
  while (!model.empty()) {
    const auto it = model_min();
    ASSERT_EQ(q.top().key(), it->key());
    q.pop();
    model.erase(it);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_GT(q.cancelled_total(), 0u);
}

TEST(EventQueueCancel, CancelledHeadNeverSurfaces) {
  sim::EventQueue<Ev> q;
  q.push({1.0, 1, 0});
  q.push({2.0, 2, 0});
  q.push({3.0, 3, 0});
  q.cancel(Ev{1.0, 1, 0}.key());  // head
  q.cancel(Ev{3.0, 3, 0}.key());  // tail
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q.top().id, 2u);
  q.pop();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.cancelled_total(), 2u);
}

// ----------------------------------------------------- DAG validation --

TEST(DagValidation, RejectsSelfEdge) {
  auto t = make_trace(4, {job(0, 0, 10, 1, {0})});
  const auto msg = thrown_message([&] { trace::validate_dependencies(t); });
  EXPECT_NE(msg.find("job 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("itself"), std::string::npos) << msg;
}

TEST(DagValidation, RejectsUnknownParent) {
  auto t = make_trace(4, {job(0, 0, 10, 1), job(1, 0, 10, 1, {7})});
  const auto msg = thrown_message([&] { trace::validate_dependencies(t); });
  EXPECT_NE(msg.find("job 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unknown parent"), std::string::npos) << msg;
}

TEST(DagValidation, RejectsDuplicateParent) {
  auto t = make_trace(4, {job(0, 0, 10, 1), job(1, 0, 10, 1, {0, 0})});
  const auto msg = thrown_message([&] { trace::validate_dependencies(t); });
  EXPECT_NE(msg.find("job 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("twice"), std::string::npos) << msg;
}

TEST(DagValidation, RejectsCycle) {
  auto t = make_trace(4, {job(0, 0, 10, 1, {1}), job(1, 0, 10, 1, {0})});
  const auto msg = thrown_message([&] { trace::validate_dependencies(t); });
  EXPECT_NE(msg.find("cycle"), std::string::npos) << msg;
  EXPECT_NE(msg.find("job 0"), std::string::npos) << msg;
}

TEST(DagValidation, SimulatorRejectsCyclicTraces) {
  auto t = make_trace(4, {job(0, 0, 10, 1, {1}), job(1, 0, 10, 1, {0})});
  sim::SimConfig config;
  sim::Simulator simulator(t, config);
  EXPECT_THROW((void)simulator.run(), InvalidArgument);
}

// Property: every generated workflow trace validates, parents precede
// children in index order, and the critical path dominates each job's
// own weight.
TEST(DagValidation, PropertyRandomLayeredDagsValidate) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    synth::DagWorkloadOptions opt;
    opt.seed = seed;
    opt.workflows = 8;
    opt.shape = seed % 3 == 0 ? synth::WorkflowShape::Chain
                : seed % 3 == 1 ? synth::WorkflowShape::ForkJoin
                                : synth::WorkflowShape::RandomLayered;
    const auto t = synth::generate_dag_workload(opt);
    ASSERT_TRUE(trace::has_dependencies(t));
    EXPECT_NO_THROW(trace::validate_dependencies(t));
    std::vector<double> weights(t.size(), 1.0);
    const auto index = trace::build_dag_index(t, weights);
    for (std::size_t i = 0; i < t.size(); ++i) {
      EXPECT_GE(index.critical_path[i], 1.0);
      for (const std::uint64_t p : t[i].parents) {
        EXPECT_LT(p, t[i].id) << "parent must precede child after sorting";
      }
    }
  }
}

TEST(DagValidation, SortBySubmitRemapsParentIds) {
  // B (id 1) depends on A (id 0) but was submitted earlier; sorting
  // renumbers A to 1 and must rewrite B's parent reference with it.
  trace::Trace t(tiny_spec(4));
  t.add(job(0, 100, 10, 1));      // A, submitted late
  t.add(job(1, 0, 10, 1, {0}));   // B, depends on A
  t.sort_by_submit();
  ASSERT_EQ(t[0].parents.size(), 1u);  // B is now index 0
  EXPECT_EQ(t[0].parents[0], 1u);      // ...and points at A's new id
  EXPECT_NO_THROW(trace::validate_dependencies(t));
}

// -------------------------------------------------- topological release --

sim::SimConfig audited(sim::PolicyKind policy = sim::PolicyKind::Fcfs) {
  sim::SimConfig config;
  config.policy = policy;
  config.audit = true;
  config.audit_fatal = true;
  return config;
}

TEST(DagRelease, ChainRunsStrictlyInOrder) {
  // Three 100 s jobs, all submitted at t=0, each filling the machine:
  // precedence alone forces starts at 0 / 100 / 200.
  const auto t = make_trace(
      10, {job(0, 0, 100, 10), job(1, 0, 100, 10, {0}),
           job(2, 0, 100, 10, {1})});
  const auto result = sim::simulate(t, audited());
  EXPECT_DOUBLE_EQ(result.outcomes[0].start_time, 0.0);
  EXPECT_DOUBLE_EQ(result.outcomes[1].start_time, 100.0);
  EXPECT_DOUBLE_EQ(result.outcomes[2].start_time, 200.0);
  EXPECT_DOUBLE_EQ(result.makespan, 300.0);
  EXPECT_EQ(result.counters.dag_releases, 2u);
  EXPECT_EQ(result.counters.audit_failures, 0u);
}

TEST(DagRelease, ForkJoinSinkWaitsForSlowestBranch) {
  // source -> {fast, slow} -> sink; branches run concurrently, the sink
  // is released only by the slower one.
  const auto t = make_trace(
      10, {job(0, 0, 50, 2), job(1, 0, 30, 2, {0}), job(2, 0, 100, 2, {0}),
           job(3, 0, 10, 2, {1, 2})});
  const auto result = sim::simulate(t, audited());
  EXPECT_DOUBLE_EQ(result.outcomes[1].start_time, 50.0);
  EXPECT_DOUBLE_EQ(result.outcomes[2].start_time, 50.0);
  EXPECT_DOUBLE_EQ(result.outcomes[3].start_time, 150.0);
  EXPECT_DOUBLE_EQ(result.makespan, 160.0);
  EXPECT_EQ(result.counters.dag_releases, 3u);
  EXPECT_EQ(result.counters.audit_failures, 0u);
}

TEST(DagRelease, DroppedParentCascadesAbandonment) {
  // The 20-core parent can never fit a 10-core machine: it is dropped,
  // and its descendants must be abandoned (not left Blocked forever).
  const auto t = make_trace(
      10, {job(0, 0, 100, 20), job(1, 0, 100, 5, {0}),
           job(2, 0, 100, 5, {1}), job(3, 0, 100, 5)});
  const auto result = sim::simulate(t, audited());
  EXPECT_EQ(result.skipped_oversized, 1u);
  EXPECT_EQ(result.counters.dag_abandoned, 2u);
  EXPECT_EQ(result.abandoned_jobs, 2u);
  EXPECT_TRUE(result.outcomes[1].abandoned);
  EXPECT_TRUE(result.outcomes[2].abandoned);
  EXPECT_FALSE(result.outcomes[1].started());
  EXPECT_TRUE(result.outcomes[3].started());  // independent job unaffected
  EXPECT_EQ(result.counters.audit_failures, 0u);
}

TEST(DagRelease, WorkflowsReleaseChildrenAuditClean) {
  synth::DagWorkloadOptions opt;
  opt.workflows = 16;
  const auto t = synth::generate_dag_workload(opt);
  const auto result =
      sim::simulate(t, audited(sim::PolicyKind::CriticalPath));
  EXPECT_GT(result.counters.dag_releases, 0u);
  EXPECT_EQ(result.counters.audit_failures, 0u);
}

// ------------------------------------------------- critical-path policy --

TEST(CriticalPath, EdgeFreeFallsBackToLongestJobFirst) {
  const auto t = make_trace(10, {job(0, 0, 10, 10), job(1, 0, 100, 10)});
  const auto result = sim::simulate(t, audited(sim::PolicyKind::CriticalPath));
  // No DAG lanes: CP degrades to longest-planned-first.
  EXPECT_DOUBLE_EQ(result.outcomes[1].start_time, 0.0);
  EXPECT_DOUBLE_EQ(result.outcomes[0].start_time, 100.0);
}

TEST(CriticalPath, PrefersLongDownstreamChain) {
  // Chain head (downstream path 300 s) vs a longer independent job
  // (150 s): CP runs the chain head first; SJF-style scores would not.
  const auto t = make_trace(
      10, {job(0, 0, 100, 10, {}), job(1, 0, 100, 10, {0}),
           job(2, 0, 100, 10, {1}), job(3, 0, 150, 10)});
  const auto result = sim::simulate(t, audited(sim::PolicyKind::CriticalPath));
  EXPECT_DOUBLE_EQ(result.outcomes[0].start_time, 0.0);
  EXPECT_DOUBLE_EQ(result.outcomes[1].start_time, 100.0);
  // The independent job outranks the 100 s chain tail (150 > 100).
  EXPECT_DOUBLE_EQ(result.outcomes[3].start_time, 200.0);
  EXPECT_DOUBLE_EQ(result.outcomes[2].start_time, 350.0);
  EXPECT_EQ(result.counters.audit_failures, 0u);
}

// ----------------------------------------------------------- hedging --

trace::Trace straggler_trace(std::uint32_t capacity, double run,
                             double hedge_run, double planned) {
  auto j = job(0, 0, run, 1, {}, planned);
  j.hedge_run_time = hedge_run;
  return make_trace(capacity, {j});
}

sim::SimConfig hedge_config(double threshold = 1.25,
                            double min_planned = 0.0) {
  auto config = audited();
  config.hedge.threshold = threshold;
  config.hedge.min_planned_s = min_planned;
  return config;
}

TEST(Hedging, DuplicateWinsAgainstStraggler) {
  // planned 100, threshold 1.25 -> check at 125; duplicate runs the
  // straggler-free 100 s and finishes at 225, beating the 1000 s primary.
  const auto t = straggler_trace(2, 1000, 100, 100);
  const auto result = sim::simulate(t, hedge_config());
  EXPECT_DOUBLE_EQ(result.makespan, 225.0);
  EXPECT_DOUBLE_EQ(result.outcomes[0].finish_time, 225.0);
  EXPECT_TRUE(result.outcomes[0].hedged);
  EXPECT_TRUE(result.outcomes[0].hedge_won);
  EXPECT_EQ(result.hedged_jobs, 1u);
  EXPECT_EQ(result.counters.hedges_launched, 1u);
  EXPECT_EQ(result.counters.hedges_won, 1u);
  EXPECT_EQ(result.counters.hedges_cancelled, 1u);
  EXPECT_EQ(result.counters.events_cancelled, 1u);
  // Loser (primary) burned 225 core-seconds; winner banked 100 useful.
  EXPECT_DOUBLE_EQ(result.wasted_core_hours, 225.0 / 3600.0);
  EXPECT_DOUBLE_EQ(result.goodput_core_hours, 100.0 / 3600.0);
  EXPECT_EQ(result.counters.audit_failures, 0u);
  const auto metrics = sim::compute_metrics(t, result);
  EXPECT_EQ(metrics.hedged_jobs, 1u);
}

TEST(Hedging, PrimaryWinsAndDuplicateIsCancelled) {
  // Primary ends at 150; the duplicate (launched 125, would end 225)
  // loses and is cancelled after burning 25 core-seconds.
  const auto t = straggler_trace(2, 150, 100, 100);
  const auto result = sim::simulate(t, hedge_config());
  EXPECT_DOUBLE_EQ(result.makespan, 150.0);
  EXPECT_TRUE(result.outcomes[0].hedged);
  EXPECT_FALSE(result.outcomes[0].hedge_won);
  EXPECT_EQ(result.counters.hedges_launched, 1u);
  EXPECT_EQ(result.counters.hedges_won, 0u);
  EXPECT_EQ(result.counters.hedges_cancelled, 1u);
  EXPECT_DOUBLE_EQ(result.wasted_core_hours, 25.0 / 3600.0);
  EXPECT_DOUBLE_EQ(result.goodput_core_hours, 150.0 / 3600.0);
  EXPECT_EQ(result.counters.audit_failures, 0u);
}

TEST(Hedging, ForfeitsWhenNoSpareCores) {
  // Capacity 1: the straggler holds the only core, so the hedge check
  // fires but cannot launch; the primary runs to its full 1000 s.
  const auto t = straggler_trace(1, 1000, 100, 100);
  const auto result = sim::simulate(t, hedge_config());
  EXPECT_DOUBLE_EQ(result.makespan, 1000.0);
  EXPECT_FALSE(result.outcomes[0].hedged);
  EXPECT_EQ(result.counters.hedges_launched, 0u);
  EXPECT_EQ(result.counters.hedges_cancelled, 0u);
  EXPECT_EQ(result.counters.audit_failures, 0u);
}

TEST(Hedging, MinPlannedGateSkipsShortJobs) {
  const auto t = straggler_trace(2, 1000, 100, 100);
  const auto result = sim::simulate(t, hedge_config(1.25, 500.0));
  EXPECT_DOUBLE_EQ(result.makespan, 1000.0);
  EXPECT_EQ(result.counters.hedges_launched, 0u);
  EXPECT_EQ(result.counters.events_cancelled, 0u);
}

TEST(Hedging, DisabledConfigLeavesCountersUntouched) {
  const auto t = straggler_trace(2, 1000, 100, 100);
  const auto result = sim::simulate(t, audited());
  EXPECT_EQ(result.counters.hedges_launched, 0u);
  EXPECT_EQ(result.counters.events_cancelled, 0u);
  EXPECT_EQ(result.hedged_jobs, 0u);
  EXPECT_DOUBLE_EQ(result.goodput_core_hours, 0.0);
}

// --------------------------------------------- fault x hedging composition --

// Node failures interrupting hedged pairs: cores freed exactly once,
// goodput/waste accounted without double counting, auditor clean on
// every event.
TEST(FaultHedging, AggressiveMtbfStaysAuditClean) {
  synth::DagWorkloadOptions gen;
  gen.workflows = 12;
  const auto base = synth::generate_dag_workload(gen);
  synth::HeavyTailOptions tail;
  tail.fraction = 0.3;
  const auto t = synth::inject_heavy_tail(base, tail);

  auto config = audited(sim::PolicyKind::CriticalPath);
  config.hedge.threshold = 1.0;
  config.fault.node_mtbf_s = 1500.0;  // aggressive: many interruptions
  config.fault.node_mttr_s = 400.0;
  config.fault.retry_backoff_s = 60.0;
  config.fault.max_retries = 5;
  const auto result = sim::simulate(t, config);
  EXPECT_EQ(result.counters.audit_failures, 0u);
  // The scenario actually exercises the composition: hedges launched,
  // nodes failed, and at least one cancellation happened.
  EXPECT_GT(result.counters.hedges_launched, 0u);
  EXPECT_GT(result.counters.node_failures, 0u);
  EXPECT_GT(result.counters.jobs_interrupted, 0u);
  EXPECT_GT(result.counters.events_cancelled, 0u);
  // Every resolved pair cancels exactly one copy: a winner implies a
  // cancelled loser, and nothing is double-counted.
  EXPECT_GE(result.counters.hedges_cancelled, result.counters.hedges_won);
  EXPECT_GE(result.counters.hedges_launched, result.counters.hedges_won);
  EXPECT_GE(result.counters.hedges_launched, result.counters.hedges_cancelled);
  EXPECT_GE(result.goodput_core_hours, 0.0);
  EXPECT_GE(result.wasted_core_hours, 0.0);
}

// ------------------------------------------------------ synth generators --

TEST(DagSynth, GeneratorIsDeterministic) {
  synth::DagWorkloadOptions opt;
  opt.workflows = 10;
  const auto a = synth::generate_dag_workload(opt);
  const auto b = synth::generate_dag_workload(opt);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].submit_time, b[i].submit_time);
    EXPECT_EQ(a[i].run_time, b[i].run_time);
    EXPECT_EQ(a[i].cores, b[i].cores);
    EXPECT_EQ(a[i].parents, b[i].parents);
    EXPECT_EQ(a[i].user, b[i].user);
  }
}

TEST(DagSynth, ChainShapeLinksEachTaskToItsPredecessor) {
  synth::DagWorkloadOptions opt;
  opt.shape = synth::WorkflowShape::Chain;
  opt.workflows = 4;
  const auto t = synth::generate_dag_workload(opt);
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].parents.empty()) continue;  // workflow head
    ASSERT_EQ(t[i].parents.size(), 1u);
    EXPECT_EQ(t[i].parents[0], t[i].id - 1);
    EXPECT_EQ(t[t[i].parents[0]].user, t[i].user);
  }
}

TEST(DagSynth, ForkJoinShapeHasFanOutAndJoin) {
  synth::DagWorkloadOptions opt;
  opt.shape = synth::WorkflowShape::ForkJoin;
  opt.workflows = 3;
  opt.min_tasks = 5;
  opt.max_tasks = 5;
  const auto t = synth::generate_dag_workload(opt);
  ASSERT_EQ(t.size(), 15u);
  for (std::size_t base = 0; base < t.size(); base += 5) {
    EXPECT_TRUE(t[base].parents.empty());          // source
    for (std::size_t k = 1; k <= 3; ++k) {         // fan-out
      ASSERT_EQ(t[base + k].parents.size(), 1u);
      EXPECT_EQ(t[base + k].parents[0], t[base].id);
    }
    EXPECT_EQ(t[base + 4].parents.size(), 3u);     // join
  }
}

TEST(DagSynth, ShapeParsingRoundTrips) {
  EXPECT_EQ(synth::workflow_shape_from_string("chain"),
            synth::WorkflowShape::Chain);
  EXPECT_EQ(synth::workflow_shape_from_string("ForkJoin"),
            synth::WorkflowShape::ForkJoin);
  EXPECT_EQ(synth::workflow_shape_from_string("layered"),
            synth::WorkflowShape::RandomLayered);
  EXPECT_THROW((void)synth::workflow_shape_from_string("ring"),
               InvalidArgument);
}

TEST(HeavyTail, InjectionIsDeterministicAndRecordsBaseRuntime) {
  synth::DagWorkloadOptions gen;
  gen.workflows = 10;
  const auto base = synth::generate_dag_workload(gen);
  synth::HeavyTailOptions opt;
  opt.fraction = 0.5;
  const auto a = synth::inject_heavy_tail(base, opt);
  const auto b = synth::inject_heavy_tail(base, opt);
  std::size_t stragglers = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].run_time, b[i].run_time);
    if (a[i].hedge_run_time > 0.0) {
      ++stragglers;
      EXPECT_EQ(a[i].hedge_run_time, base[i].run_time);
      EXPECT_GT(a[i].run_time, base[i].run_time);
      EXPECT_LE(a[i].run_time, base[i].run_time * opt.max_multiplier + 1e-9);
    } else {
      EXPECT_EQ(a[i].run_time, base[i].run_time);
    }
    EXPECT_EQ(a[i].requested_time, base[i].requested_time);  // untouched
  }
  EXPECT_GT(stragglers, 0u);
  EXPECT_LT(stragglers, a.size());
}

TEST(HeavyTail, ZeroFractionIsIdentity) {
  synth::DagWorkloadOptions gen;
  gen.workflows = 5;
  const auto base = synth::generate_dag_workload(gen);
  synth::HeavyTailOptions opt;
  opt.fraction = 0.0;
  const auto out = synth::inject_heavy_tail(base, opt);
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(out[i].run_time, base[i].run_time);
    EXPECT_EQ(out[i].hedge_run_time, base[i].hedge_run_time);
  }
}

}  // namespace
}  // namespace lumos
