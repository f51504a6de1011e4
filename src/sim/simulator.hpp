// Discrete-event cluster scheduling simulator (the SchedGym substitute).
//
// Replays a trace's submissions (submit time, cores, runtime, walltime
// request) against a Cluster, making scheduling decisions with a queue
// policy plus a backfill strategy, and reports the paper's four Table II
// metrics: average wait, average bounded slowdown, utilization, and
// reservation-violation delay.
//
// Semantics (matching SWF-replay simulators like SchedGym):
//  * Jobs are rigid: `cores` held for exactly `run_time` seconds.
//  * Planning uses the walltime request (`requested_time`); execution uses
//    the actual runtime. Traces without walltime requests fall back to the
//    oracle runtime for planning (flagged in the result).
//  * EASY reservation: when the queue head cannot start, it is promised the
//    earliest start computed from running jobs' *planned* ends. A job's
//    first such promise is its reservation; `violation` measures how far
//    relaxed backfilling pushed actual starts past first reservations.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "sim/backfill.hpp"
#include "sim/cluster.hpp"
#include "sim/event_queue.hpp"
#include "sim/policy.hpp"
#include "trace/trace.hpp"

namespace lumos::obs {
class Registry;
}  // namespace lumos::obs

namespace lumos::sim {

/// Straggler-mitigation by hedged duplicate launches (DESIGN.md §4h).
/// When a running job's elapsed time exceeds `threshold` times its
/// planned (requested/oracle) runtime, the scheduler launches a duplicate
/// copy on the same partition if the cores are free. First finish wins;
/// the loser is cancelled, its cores freed exactly once and its burned
/// core-hours accounted as waste. Disabled (threshold 0) runs are
/// bit-identical to the pre-hedging simulator.
struct HedgeConfig {
  /// Launch a duplicate once elapsed > threshold * planned. 0 disables.
  double threshold = 0.0;
  /// Jobs with planned runtime below this never hedge (duplicating tiny
  /// jobs wastes cores for no tail benefit).
  double min_planned_s = 0.0;
  [[nodiscard]] bool enabled() const noexcept { return threshold > 0.0; }
};

struct SimConfig {
  PolicyKind policy = PolicyKind::Fcfs;
  /// Backfill strategy. The scan cap per scheduling pass and the EMA
  /// smoothing of the relaxed-allowance wait reference are constants
  /// (kBackfillScanLimit, kWaitEmaAlpha in simulator.cpp).
  BackfillConfig backfill;
  /// Bounded-slowdown interactive threshold (Feitelson), seconds.
  double bsld_bound = 10.0;
  /// Run the SimAuditor after every event: core accounting, queue
  /// accounting, queued/running disjointness, and incremental-profile
  /// equivalence (see DESIGN.md "Event-loop invariants"). Costs O(state)
  /// per event — for tests and debugging, not production sweeps.
  bool audit = false;
  /// When auditing, throw InternalError on the first violated invariant
  /// (otherwise violations are only counted in `counters.audit_failures`).
  bool audit_fatal = true;
  /// Node failure/recovery injection (see src/fault/fault.hpp). The
  /// default is disabled, and a disabled config leaves every result field
  /// and counter bit-identical to the fault-free simulator.
  fault::FaultConfig fault;
  /// Straggler hedging (see HedgeConfig). Disabled by default; a disabled
  /// config leaves every result field and counter bit-identical to the
  /// pre-hedging simulator.
  HedgeConfig hedge;
};

/// Event-loop instrumentation, surfaced through SimResult. All counters
/// are maintained unconditionally (they are O(1) increments); audit
/// counters stay zero unless `SimConfig::audit` is set.
struct SimCounters {
  std::uint64_t events = 0;            ///< completions + arrivals
  std::uint64_t completions = 0;
  std::uint64_t arrivals = 0;
  /// Distinct event timestamps processed: every event at one simulated
  /// instant is drained in one batch that triggers a single scheduling
  /// round, so events/event_batches measures how much work batching saves.
  std::uint64_t event_batches = 0;
  std::uint64_t scheduling_passes = 0; ///< per-partition pass invocations
  std::uint64_t sort_invocations = 0;  ///< policy re-sorts actually run
  std::uint64_t profile_rebuilds = 0;  ///< from-scratch profile builds
  std::uint64_t profile_cache_hits = 0;///< passes served by the cache
  std::uint64_t profile_invalidations = 0; ///< cached profiles dropped
  std::uint64_t backfill_attempts = 0; ///< non-head candidates examined
  std::uint64_t backfill_successes = 0;///< candidates started out of order
  std::uint64_t audits = 0;            ///< auditor checks performed
  std::uint64_t audit_failures = 0;    ///< violated invariants observed
  // Fault injection (all zero when SimConfig::fault is disabled).
  std::uint64_t node_failures = 0;     ///< node-down events processed
  std::uint64_t node_recoveries = 0;   ///< node-up events processed
  std::uint64_t jobs_interrupted = 0;  ///< interruptions (job may repeat)
  std::uint64_t retries = 0;           ///< resubmissions + requeues
  std::uint64_t jobs_abandoned = 0;    ///< jobs that exhausted retries
  double work_lost_core_hours = 0.0;   ///< progress discarded by faults
  // DAG + hedging (all zero for edge-free traces with hedging disabled).
  std::uint64_t dag_releases = 0;      ///< blocked jobs released by a parent
  std::uint64_t dag_abandoned = 0;     ///< descendants of dead parents
  std::uint64_t events_cancelled = 0;  ///< event-queue tombstones consumed
  std::uint64_t hedges_launched = 0;   ///< duplicate copies started
  std::uint64_t hedges_won = 0;        ///< duplicates that beat the primary
  std::uint64_t hedges_cancelled = 0;  ///< losing copies torn down
  double hedge_wasted_core_hours = 0.0;///< losers' burned core-hours
  [[nodiscard]] bool operator==(const SimCounters&) const = default;
};

/// A job currently executing — event-loop state, exposed so the
/// SimAuditor can cross-check running-set accounting against the Cluster.
struct RunningJob {
  double end = 0.0;          ///< actual completion time
  double planned_end = 0.0;  ///< scheduler-visible completion time
  std::uint64_t cores = 0;
  std::size_t partition = 0;
  std::uint32_t index = 0;
  /// Interruption generation at start; a queue entry whose epoch is stale
  /// belongs to an execution attempt a node failure already tore down.
  std::uint32_t epoch = 0;
  /// 1 for a hedged duplicate copy, 0 for the primary.
  std::uint8_t hedge = 0;
  /// Completion-event ordering key: (end, Finish, index, 2*epoch+hedge)
  /// under `event_before` — same-instant completions drain in job-index
  /// order, and a primary beats its duplicate at the exact same end.
  [[nodiscard]] EventKey key() const noexcept {
    return {end, EventKind::Finish, index, 2 * epoch + hedge};
  }
};

/// Outcome for one job, index-aligned with the input trace.
struct JobOutcome {
  double start_time = -1.0;          ///< -1 = never started (oversized)
  double finish_time = -1.0;         ///< winner's completion (-1 = none)
  double first_reservation = -1.0;   ///< -1 = never needed a reservation
  bool backfilled = false;           ///< started ahead of the queue head
  std::uint32_t interruptions = 0;   ///< node-failure interruptions
  bool abandoned = false;            ///< gave up after exhausting retries
  bool hedged = false;               ///< a duplicate copy was launched
  bool hedge_won = false;            ///< the duplicate finished first
  [[nodiscard]] bool started() const noexcept { return start_time >= 0.0; }
  /// Positive when a relaxed backfill pushed this job past its promise.
  [[nodiscard]] double reservation_delay() const noexcept {
    if (first_reservation < 0.0 || start_time < 0.0) return 0.0;
    const double d = start_time - first_reservation;
    return d > 1e-6 ? d : 0.0;
  }
  [[nodiscard]] bool operator==(const JobOutcome&) const = default;
};

struct SimResult {
  std::vector<JobOutcome> outcomes;     ///< per input-trace job
  std::size_t max_queue_length = 0;
  std::size_t backfilled_jobs = 0;
  std::size_t skipped_oversized = 0;    ///< jobs larger than any partition
  double makespan = 0.0;                ///< last completion time
  bool used_oracle_runtimes = false;    ///< trace lacked walltime requests
  // Fault accounting (zero in the fault-free world). Goodput is the
  // core-hours of completed useful work; waste is progress a failure
  // rolled back (plus everything an abandoned job had consumed).
  double goodput_core_hours = 0.0;
  double wasted_core_hours = 0.0;
  std::size_t interrupted_jobs = 0;     ///< distinct jobs interrupted
  std::size_t abandoned_jobs = 0;
  std::size_t hedged_jobs = 0;          ///< distinct jobs that got a duplicate
  SimCounters counters;                 ///< event-loop instrumentation
  /// Field-for-field (bit-exact for doubles) — the shard-identity tests
  /// compare entire results with this.
  [[nodiscard]] bool operator==(const SimResult&) const = default;
};

/// Runs `trace` (which must be sorted by submit time; InvalidArgument
/// otherwise) to completion, publishing event-loop counters to the
/// global obs registry (metrics are computed separately via
/// sim::compute_metrics). Deterministic for a given (trace, config).
[[nodiscard]] SimResult simulate(const trace::Trace& trace,
                                 const SimConfig& config);

/// As above, but publishing into `registry` — sweep shards thread a
/// private registry through here so counters come from the registry
/// actually wired into the run, never a global one mutated by whoever
/// ran last.
[[nodiscard]] SimResult simulate(const trace::Trace& trace,
                                 const SimConfig& config,
                                 obs::Registry& registry);

}  // namespace lumos::sim
