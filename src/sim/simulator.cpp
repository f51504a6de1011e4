#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "sim/auditor.hpp"
#include "sim/event_queue.hpp"
#include "sim/job_soa.hpp"
#include "sim/profile.hpp"
#include "trace/dag.hpp"
#include "util/annotations.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace lumos::sim {

namespace {

constexpr double kEps = 1e-6;

/// EMA smoothing for the expected-wait reference used by relaxed
/// backfilling allowances.
constexpr double kWaitEmaAlpha = 0.01;

/// Cap on how many queued jobs one scheduling pass scans for backfill
/// candidates: every scanned candidate is checked against the profile, so
/// an uncapped scan is O(n^2) per pass on a pathological backlog.
constexpr std::size_t kBackfillScanLimit = 2000;

/// Policies whose score depends on the current waiting time. Their queue
/// order can change as time advances even without arrivals, so the
/// incremental sort must also refresh when `now` moves.
bool policy_is_time_dependent(PolicyKind p) noexcept {
  return p == PolicyKind::Wfp3 || p == PolicyKind::Unicep;
}

/// A pending resubmission after an interruption. Ordered as an Arrive
/// event — (time, Arrive, job index) — matching the historical
/// (re-arrival time, job index) order exactly.
struct RetryEvent {
  double time = 0.0;
  std::uint32_t index = 0;
  [[nodiscard]] EventKey key() const noexcept {
    return {time, EventKind::Arrive, index, 0};
  }
};

/// A straggler-hedge check timer: fires `threshold * planned` after a job
/// starts; if the job is still running, a duplicate copy is launched.
/// At most one check is live per job (finish/interrupt cancels the
/// pending timer), so seq 0 keeps keys unique.
struct HedgeEvent {
  double time = 0.0;
  std::uint32_t index = 0;
  [[nodiscard]] EventKey key() const noexcept {
    return {time, EventKind::Hedge, index, 0};
  }
};

/// The event-loop engine: all per-run state lives here, laid out
/// data-oriented (see job_soa.hpp / event_queue.hpp), with every scratch
/// buffer hoisted to a member so the steady-state loop allocates nothing.
///
/// Batching rule (DESIGN.md §4f): each outer iteration advances `now` to
/// the next event timestamp and drains EVERY event at that instant —
/// completions, then node faults, then elapsed retries, then arrivals —
/// before running one scheduling round over all partitions. N same-time
/// events therefore cost one policy sort per dirty partition and one
/// availability-profile rebuild per (partition, timestamp), not N.
class SimEngine {
 public:
  SimEngine(const trace::Trace& trace, const SimConfig& config)
      : trace_(trace),
        config_(config),
        cluster_(Cluster::from_spec(trace.spec())) {}

  [[nodiscard]] SimResult run();

 private:
  struct ProfileCache {
    ResourceProfile profile{0.0, 1};
    double time = -1.0;
    bool valid = false;
  };

  void audit() {
    if (auditor_) {
      auditor_->check(cluster_, queues_, running_by_part_, total_queued_,
                      &jobs_);
    }
  }

  // Swap-erases slot `slot` out of a partition's running vector, patching
  // the moved entry's run-slot or hedge-slot handle per its copy kind.
  LUMOS_HOT_PATH void remove_running_slot(std::vector<RunningJob>& vec,
                                          std::uint32_t slot) {
    vec[slot] = vec.back();
    const RunningJob& moved = vec[slot];
    if (moved.hedge != 0) {
      jobs_.set_hedge_slot(moved.index, slot);
    } else {
      jobs_.set_run_slot(moved.index, slot);
    }
    vec.pop_back();
  }

  // Cancels the pending hedge-check timer for `idx`, if any. Finishing or
  // interrupting a job before its check fires must retire the timer, or a
  // later attempt's state would be probed by a stale event.
  void cancel_hedge_check(std::uint32_t idx) {
    if (!hedging_on_) return;
    double& t = jobs_.hedge_check_time(idx);
    if (t >= 0.0) {
      hedge_checks_.cancel(EventKey{t, EventKind::Hedge, idx, 0});
      t = -1.0;
    }
  }

  // First finish of a hedged pair wins: tears down the losing copy when
  // `winner` completes. The loser's cores are freed here — exactly once,
  // because its Finish entry is tombstoned and can never drain as a
  // completion — and its burned core-hours are charged to waste.
  void cancel_hedge_loser(const RunningJob& winner) {
    auto& vec = running_by_part_[winner.partition];
    const std::uint32_t lslot = winner.hedge != 0
                                    ? jobs_.run_slot(winner.index)
                                    : jobs_.hedge_slot(winner.index);
    if (lslot >= vec.size() || vec[lslot].index != winner.index ||
        vec[lslot].hedge == winner.hedge) {
      throw InternalError("hedge pair out of sync with running slots");
    }
    const RunningJob loser = vec[lslot];
    remove_running_slot(vec, lslot);
    cluster_.release(loser.cores, loser.partition);
    running_.cancel(loser.key());
    jobs_.set_hedge_active(winner.index, false);
    const double lstart = loser.hedge != 0 ? jobs_.hedge_start(winner.index)
                                           : jobs_.run_start(winner.index);
    const double burned = std::max(0.0, winner.end - lstart) *
                          static_cast<double>(loser.cores) / 3600.0;
    result_.wasted_core_hours += burned;
    counters_->hedge_wasted_core_hours += burned;
    ++counters_->hedges_cancelled;
    invalidate_profile(winner.partition);
  }

  // Launches a duplicate copy of a still-running straggler if its
  // partition has the spare cores; a full partition forfeits the hedge
  // (the next event is the primary's own finish). The duplicate runs the
  // trace's straggler-free runtime from scratch — no checkpoint handoff.
  LUMOS_HOT_PATH void try_launch_hedge(std::uint32_t idx) {
    if (jobs_.location(idx) != JobLocation::Running ||
        jobs_.hedge_active(idx)) {
      return;
    }
    const std::size_t part = jobs_.partition(idx);
    const std::uint64_t cores = jobs_.cores(idx);
    if (!cluster_.fits(cores, part)) return;
    const bool ok = cluster_.allocate(cores, part);
    // lumos-lint: allow(hot-throw) guard: fits() was checked on the line above
    if (!ok) throw InternalError("hedge launch without free cores");
    RunningJob h;
    h.end = now_ + jobs_.hedge_run(idx);
    h.planned_end = now_ + jobs_.planned(idx);
    h.cores = cores;
    h.partition = part;
    h.index = idx;
    h.epoch = faults_on_ ? jobs_.epoch(idx) : 0;
    h.hedge = 1;
    running_.push(h);
    auto& vec = running_by_part_[part];
    jobs_.set_hedge_slot(idx, static_cast<std::uint32_t>(vec.size()));
    vec.push_back(h);
    jobs_.set_hedge_active(idx, true);
    jobs_.hedge_start(idx) = now_;
    ++counters_->hedges_launched;
    auto& outcome = result_.outcomes[idx];
    if (!outcome.hedged) {
      outcome.hedged = true;
      ++result_.hedged_jobs;
    }
    // The duplicate reserves planned capacity like any other start.
    ProfileCache& cache = profiles_[part];
    if (cache.valid && cache.time == now_) {
      cache.profile.reserve(now_, h.planned_end, h.cores);
    }
  }

  // Marks every unstarted descendant of a dead job Abandoned: with an
  // ancestor abandoned or dropped, the child's parent set can never
  // complete, and leaving it Blocked would strand the workflow silently.
  void abandon_descendants(std::uint32_t idx) {
    cascade_.assign(1, idx);
    while (!cascade_.empty()) {
      const std::uint32_t parent = cascade_.back();
      cascade_.pop_back();
      for (const std::uint32_t* c = jobs_.children_begin(parent);
           c != jobs_.children_end(parent); ++c) {
        const JobLocation loc = jobs_.location(*c);
        if (loc != JobLocation::NotArrived && loc != JobLocation::Blocked) {
          continue;  // already released (other parents done) or abandoned
        }
        jobs_.set_location(*c, JobLocation::Abandoned);
        result_.outcomes[*c].abandoned = true;
        ++result_.abandoned_jobs;
        ++counters_->dag_abandoned;
        cascade_.push_back(*c);
      }
    }
  }

  // Releases the blocked children whose last parent finished this batch.
  // Completions drain in event_before order, but sorting the released set
  // by job index makes the FCFS queue order independent of even that —
  // release order matches arrival-order semantics.
  LUMOS_HOT_PATH void release_ready_children() {
    std::sort(released_.begin(), released_.end());
    for (const std::uint32_t idx : released_) {
      const std::size_t part = jobs_.partition(idx);
      queues_[part].push_back(idx);
      jobs_.set_location(idx, JobLocation::Queued);
      sort_dirty_[part] = 1;
      ++total_queued_;
      ++counters_->dag_releases;
    }
    released_.clear();
    audit();
  }

  // Planned-availability profile for one partition from its running jobs,
  // rebuilt in place into `out` (O(R log R) via sorted ends; exactly
  // equal to sequentially reserving each job — see assign_reservations).
  // Planned ends already in the past (jobs overrunning their estimate)
  // are treated as ending shortly after `now`.
  LUMOS_HOT_PATH void rebuild_profile(std::size_t part, ResourceProfile& out) {
    ends_.clear();
    for (const RunningJob& r : running_by_part_[part]) {
      const double planned_end =
          r.planned_end > now_ + kEps ? r.planned_end : now_ + 60.0;
      ends_.emplace_back(planned_end, r.cores);
    }
    // Offline (failed-node) cores are unavailable for planning until they
    // recover; the MTTR is the scheduler's repair-time estimate, keeping
    // reservations finite while a node is down.
    if (faults_on_ && cluster_.offline(part) > 0) {
      ends_.emplace_back(now_ + config_.fault.node_mttr_s,
                         cluster_.offline(part));
    }
    std::sort(ends_.begin(), ends_.end());
    out.assign_reservations(now_, cluster_.capacity(part), ends_);
  }

  // Returns the partition's availability profile, serving from the
  // incremental cache when it is still anchored at `now`. Callers that
  // mutate the profile must copy it into a scratch member first.
  LUMOS_HOT_PATH const ResourceProfile& ensure_profile(std::size_t part) {
    ProfileCache& cache = profiles_[part];
    if (!cache.valid || cache.time != now_) {
      rebuild_profile(part, cache.profile);
      cache.valid = true;
      cache.time = now_;
      ++counters_->profile_rebuilds;
    } else {
      ++counters_->profile_cache_hits;
      if (auditor_) {
        rebuild_profile(part, audit_profile_);
        auditor_->check_profile(cache.profile, audit_profile_);
      }
    }
    return cache.profile;
  }

  void invalidate_profile(std::size_t part) {
    ProfileCache& cache = profiles_[part];
    if (cache.valid) ++counters_->profile_invalidations;
    cache.valid = false;
  }

  LUMOS_HOT_PATH void start_job(std::uint32_t idx, bool as_backfill) {
    if (jobs_.location(idx) != JobLocation::Queued) {
      // lumos-lint: allow(hot-throw) scheduler-invariant guard: callers only pass Queued jobs
      throw InternalError("start_job on a job that is not queued");
    }
    const std::size_t part = jobs_.partition(idx);
    const std::uint64_t cores = jobs_.cores(idx);
    const bool ok = cluster_.allocate(cores, part);
    // lumos-lint: allow(hot-throw) scheduler-invariant guard: fit was checked before the call
    if (!ok) throw InternalError("start_job without free cores");
    auto& outcome = result_.outcomes[idx];
    // A restart after an interruption keeps the job's original outcome:
    // start_time/backfilled describe the first attempt only, so the
    // paper's wait/bsld metrics keep their fault-free meaning.
    const bool first_start = !outcome.started();
    if (first_start) {
      outcome.start_time = now_;
      outcome.backfilled = as_backfill;
      if (as_backfill) ++result_.backfilled_jobs;
    }
    if (as_backfill) ++counters_->backfill_successes;
    RunningJob r;
    r.end = now_ + (faults_on_ ? jobs_.remaining_run(idx) : jobs_.run(idx));
    r.planned_end = now_ + jobs_.planned(idx);
    r.cores = cores;
    r.partition = part;
    r.index = idx;
    if (faults_on_) {
      r.epoch = jobs_.epoch(idx);
      jobs_.run_start(idx) = now_;
    }
    if (hedging_on_) {
      jobs_.run_start(idx) = now_;
      const double planned = jobs_.planned(idx);
      if (planned >= config_.hedge.min_planned_s) {
        const double check_at = now_ + config_.hedge.threshold * planned;
        hedge_checks_.push(HedgeEvent{check_at, idx});
        jobs_.hedge_check_time(idx) = check_at;
      }
    }
    running_.push(r);
    jobs_.set_location(idx, JobLocation::Running);
    jobs_.set_run_slot(idx,
                       static_cast<std::uint32_t>(running_by_part_[part].size()));
    running_by_part_[part].push_back(r);
    // Keep the cached profile current: a job starting at the cache's
    // anchor time reserves exactly what a rebuild would reserve for it
    // (its planned end is strictly in the future, so no overrun clamp).
    ProfileCache& cache = profiles_[part];
    if (cache.valid && cache.time == now_) {
      cache.profile.reserve(now_, r.planned_end, r.cores);
    }
    const double wait = now_ - jobs_.submit(idx);
    ema_wait_ = ema_init_ ? (1.0 - kWaitEmaAlpha) * ema_wait_ +
                                kWaitEmaAlpha * wait
                          : wait;
    ema_init_ = true;
  }

  // Batch-compacts every job no longer Queued out of `queue` in one
  // order-preserving pass. Throws InternalError when the queue does not
  // contain exactly the jobs the caller just started.
  void remove_started(std::vector<std::uint32_t>& queue, std::size_t expected) {
    std::size_t w = 0;
    std::size_t removed = 0;
    for (std::size_t r = 0; r < queue.size(); ++r) {
      if (jobs_.location(queue[r]) == JobLocation::Queued) {
        queue[w++] = queue[r];
      } else {
        ++removed;
      }
    }
    if (removed != expected) {
      throw InternalError(
          "erase_from_queue: started job missing from its partition queue");
    }
    queue.resize(w);
    total_queued_ -= removed;
  }

  // One scheduling pass over partition `part`; returns jobs started.
  LUMOS_HOT_PATH std::size_t schedule_partition(std::size_t part) {
    auto& queue = queues_[part];
    if (queue.empty()) return 0;
    ++counters_->scheduling_passes;

    // Drop jobs that can never fit this partition (Supercloud-style
    // inputs); they would wedge the head of the queue forever.
    {
      std::size_t w = 0;
      for (std::size_t r = 0; r < queue.size(); ++r) {
        if (jobs_.cores(queue[r]) > cluster_.capacity(part)) {
          jobs_.set_location(queue[r], JobLocation::Dropped);
          ++result_.skipped_oversized;
          --total_queued_;
          // A dropped parent can never finish; its descendants can never
          // release.
          if (dag_on_) abandon_descendants(queue[r]);
        } else {
          queue[w++] = queue[r];
        }
      }
      queue.resize(w);
    }
    if (queue.empty()) return 0;

    // Order the queue by the policy (lower score first, FCFS tiebreak).
    // Arrivals are pushed in submit order, so FCFS needs no sort. Scores
    // are precomputed per job — one policy_score call each instead of
    // two per comparison.
    if (config_.policy != PolicyKind::Fcfs &&
        (sort_dirty_[part] != 0 ||
         (time_dependent_ && sorted_at_[part] != now_))) {
      ++counters_->sort_invocations;
      if (cp_scored_) {
        // Critical-path-first: negate so the longest downstream chain of
        // planned work sorts to the head (lower score serves earlier).
        for (const std::uint32_t idx : queue) {
          score_[idx] = -jobs_.cp_length(idx);
        }
      } else {
        for (const std::uint32_t idx : queue) {
          const PolicyJobView view{jobs_.submit(idx), now_ - jobs_.submit(idx),
                                   jobs_.planned(idx), jobs_.cores(idx)};
          score_[idx] = policy_score(config_.policy, view);
        }
      }
      std::stable_sort(queue.begin(), queue.end(),
                       [this](std::uint32_t a, std::uint32_t b) {
                         if (score_[a] != score_[b]) return score_[a] < score_[b];
                         return jobs_.submit(a) < jobs_.submit(b);
                       });
      sort_dirty_[part] = 0;
      sorted_at_[part] = now_;
    }

    std::size_t started = 0;

    if (config_.backfill.kind == BackfillKind::Conservative) {
      // Reservation for every queued job; start those whose earliest
      // start is now.
      work_profile_ = ensure_profile(part);
      to_start_.clear();
      const std::size_t scan =
          std::min(queue.size(), kBackfillScanLimit);
      for (std::size_t qi = 0; qi < scan; ++qi) {
        if (qi > 0) ++counters_->backfill_attempts;
        const std::uint32_t idx = queue[qi];
        const double planned = jobs_.planned(idx);
        const std::uint64_t cores = jobs_.cores(idx);
        const double est = work_profile_.earliest_start(now_, planned, cores);
        work_profile_.reserve(est, est + planned, cores);
        auto& outcome = result_.outcomes[idx];
        if (outcome.first_reservation < 0.0 && est > now_ + kEps) {
          outcome.first_reservation = est;
        }
        if (est <= now_ + kEps) to_start_.push_back(idx);
      }
      if (!to_start_.empty()) {
        // A job is a backfill when it is not the head of the queue as
        // this pass begins; the head must be captured before any start
        // mutates the queue front.
        const std::uint32_t pass_head = queue.front();
        for (std::uint32_t idx : to_start_) {
          start_job(idx, /*as_backfill=*/idx != pass_head);
          ++started;
        }
        remove_started(queue, to_start_.size());
      }
      return started;
    }

    // Head service with optional EASY/relaxed backfilling. Pops are
    // deferred: started heads are skipped over and compacted off in one
    // batch below.
    std::size_t head_pos = 0;
    while (head_pos < queue.size()) {
      const std::uint32_t h = queue[head_pos];
      if (!cluster_.fits(jobs_.cores(h), part)) break;
      start_job(h, /*as_backfill=*/false);
      ++head_pos;
      ++started;
    }
    if (head_pos > 0) {
      queue.erase(queue.begin(),
                  queue.begin() + static_cast<std::ptrdiff_t>(head_pos));
      total_queued_ -= head_pos;
    }
    if (queue.empty() || config_.backfill.kind == BackfillKind::None) {
      return started;
    }

    // Head is blocked: compute its EASY reservation (shadow time).
    const std::uint32_t head = queue.front();
    const double head_planned = jobs_.planned(head);
    const std::uint64_t head_cores = jobs_.cores(head);
    work_profile_ = ensure_profile(part);
    double shadow = work_profile_.earliest_start(now_, head_planned, head_cores);
    auto& head_outcome = result_.outcomes[head];
    if (head_outcome.first_reservation < 0.0) {
      head_outcome.first_reservation = shadow;
    }
    // Cores free at the shadow time beyond what the head needs; a
    // backfill running past the shadow is harmless if it fits within them.
    auto extra_at = [&](double t) -> std::uint64_t {
      const std::uint64_t f = work_profile_.free_at(t);
      return f > head_cores ? f - head_cores : 0;
    };
    std::uint64_t extra = extra_at(shadow);

    // Relaxation allowance: how far past its *first* promise the head may
    // be pushed. Reference is the EMA of realized waits ("expected job
    // waiting time"), floored by the head's own wait so far.
    const double eff_factor = effective_relax_factor(
        config_.backfill, total_queued_, result_.max_queue_length);
    const double reference_wait =
        std::max(ema_wait_, now_ - jobs_.submit(head));
    const double deadline =
        head_outcome.first_reservation + eff_factor * reference_wait;

    const std::size_t scan =
        std::min(queue.size(), kBackfillScanLimit);
    to_start_.clear();
    std::uint64_t committed = 0;  // cores promised to accepted backfills
    for (std::size_t qi = 1; qi < scan; ++qi) {
      ++counters_->backfill_attempts;
      const std::uint32_t cand = queue[qi];
      const std::uint64_t cand_cores = jobs_.cores(cand);
      if (cand_cores + committed > cluster_.free(part)) continue;
      const double cand_end = now_ + jobs_.planned(cand);
      bool accept = false;
      if (cand_end <= shadow + kEps) {
        accept = true;  // finishes before the head needs the machine
      } else if (cand_cores <= extra) {
        accept = true;  // runs on cores the head will not need
      } else if (eff_factor > 0.0 && shadow < deadline) {
        // Relaxed path: admit the candidate if the head's recomputed
        // earliest start stays within the allowance.
        cand_profile_ = work_profile_;
        cand_profile_.reserve(now_, cand_end, cand_cores);
        const double pushed =
            cand_profile_.earliest_start(now_, head_planned, head_cores);
        accept = pushed <= deadline + kEps;
      }
      if (accept) {
        to_start_.push_back(cand);
        committed += cand_cores;
        // Keep the planning state consistent for later candidates.
        work_profile_.reserve(now_, cand_end, cand_cores);
        shadow = work_profile_.earliest_start(now_, head_planned, head_cores);
        extra = extra_at(shadow);
      }
    }
    if (!to_start_.empty()) {
      for (std::uint32_t idx : to_start_) {
        start_job(idx, /*as_backfill=*/true);
        ++started;
      }
      remove_started(queue, to_start_.size());
    }
    return started;
  }

  void schedule_all() {
    for (;;) {
      std::size_t started = 0;
      for (std::size_t part = 0; part < queues_.size(); ++part) {
        started += schedule_partition(part);
      }
      if (started == 0) break;
    }
    result_.max_queue_length =
        std::max(result_.max_queue_length, total_queued_);
    audit();
  }

  // Tears one running job down after a node failure: frees its cores,
  // bumps its epoch (invalidating the completion-queue entry, so the job
  // leaves the running set exactly once), rolls its progress back to the
  // last checkpoint, and routes it through the retry policy.
  void interrupt(std::uint32_t idx) {
    const std::size_t part = jobs_.partition(idx);
    auto& vec = running_by_part_[part];
    // A node failure tears down the whole hedged pair: the duplicate is
    // cancelled first (cores freed, Finish entry tombstoned) so the
    // primary teardown below sees ordinary single-copy state, and the
    // retried attempt starts un-hedged with a fresh check timer.
    if (hedging_on_ && jobs_.hedge_active(idx)) {
      const std::uint32_t hslot = jobs_.hedge_slot(idx);
      if (hslot >= vec.size() || vec[hslot].index != idx ||
          vec[hslot].hedge == 0) {
        throw InternalError("interrupt: hedge-slot handle out of sync");
      }
      const RunningJob dup = vec[hslot];
      remove_running_slot(vec, hslot);
      cluster_.release(dup.cores, dup.partition);
      running_.cancel(dup.key());
      jobs_.set_hedge_active(idx, false);
      const double burned = std::max(0.0, now_ - jobs_.hedge_start(idx)) *
                            static_cast<double>(dup.cores) / 3600.0;
      result_.wasted_core_hours += burned;
      counters_->hedge_wasted_core_hours += burned;
      ++counters_->hedges_cancelled;
    }
    cancel_hedge_check(idx);
    const std::uint32_t slot = jobs_.run_slot(idx);
    if (jobs_.location(idx) != JobLocation::Running || slot >= vec.size() ||
        vec[slot].index != idx || vec[slot].hedge != 0) {
      throw InternalError("interrupt: running-slot handle out of sync");
    }
    const RunningJob r = vec[slot];
    remove_running_slot(vec, slot);
    cluster_.release(r.cores, r.partition);
    ++jobs_.epoch(idx);

    auto& outcome = result_.outcomes[idx];
    const double elapsed = std::max(0.0, now_ - jobs_.run_start(idx));
    const double interval = config_.fault.checkpoint_interval_s;
    const double preserved =
        interval > 0.0 ? std::floor(elapsed / interval) * interval : 0.0;
    jobs_.remaining_run(idx) =
        std::max(0.0, jobs_.remaining_run(idx) - preserved);
    const double lost_ch =
        (elapsed - preserved) * static_cast<double>(jobs_.cores(idx)) / 3600.0;
    result_.wasted_core_hours += lost_ch;
    counters_->work_lost_core_hours += lost_ch;
    ++counters_->jobs_interrupted;
    if (outcome.interruptions == 0) ++result_.interrupted_jobs;
    ++outcome.interruptions;
    ++jobs_.attempts(idx);

    if (config_.fault.retry == fault::RetryPolicy::Abandon ||
        jobs_.attempts(idx) > config_.fault.max_retries) {
      jobs_.set_location(idx, JobLocation::Abandoned);
      outcome.abandoned = true;
      ++result_.abandoned_jobs;
      ++counters_->jobs_abandoned;
      // Checkpointed progress the job banked is sunk work now too.
      const double sunk_ch = (jobs_.run(idx) - jobs_.remaining_run(idx)) *
                             static_cast<double>(jobs_.cores(idx)) / 3600.0;
      result_.wasted_core_hours += sunk_ch;
      counters_->work_lost_core_hours += sunk_ch;
      if (dag_on_) abandon_descendants(idx);
      return;
    }
    ++counters_->retries;
    if (config_.fault.retry == fault::RetryPolicy::RequeueFront) {
      auto& queue = queues_[part];
      queue.insert(queue.begin(), idx);
      jobs_.set_location(idx, JobLocation::Queued);
      sort_dirty_[part] = 1;
      ++total_queued_;
    } else {  // Resubmit with exponential backoff
      const double backoff =
          config_.fault.retry_backoff_s *
          std::pow(2.0, static_cast<double>(jobs_.attempts(idx) - 1));
      retries_.push(RetryEvent{now_ + backoff, idx});
      jobs_.set_location(idx, JobLocation::Retrying);
    }
  }

  // One node state transition. On failure: interrupt running jobs in the
  // partition (youngest-first, a deterministic order) until the failed
  // cores are free, then take them offline. On recovery: return them.
  void handle_node_event(const fault::NodeEvent& ev) {
    const auto part = static_cast<std::size_t>(ev.partition);
    if (ev.failure) {
      if (cluster_.free(part) < ev.cores) {
        victims_.clear();
        victims_.reserve(running_by_part_[part].size());
        for (const RunningJob& r : running_by_part_[part]) {
          victims_.push_back(r.index);
        }
        std::sort(victims_.begin(), victims_.end(),
                  std::greater<std::uint32_t>());
        for (std::uint32_t idx : victims_) {
          if (cluster_.free(part) >= ev.cores) break;
          // A hedged pair appears twice in the running vector; its first
          // interruption tears both copies down, so the second sighting
          // (and any job another interrupt requeued) is skipped.
          if (jobs_.location(idx) != JobLocation::Running) continue;
          interrupt(idx);
        }
      }
      // Up-node cores are free ∪ allocated, so interrupting enough jobs
      // always reclaims the failed node's share.
      if (cluster_.free(part) < ev.cores) {
        throw InternalError("node failure exceeds reclaimable capacity");
      }
      cluster_.fail(ev.cores, part);
      ++counters_->node_failures;
    } else {
      cluster_.recover(ev.cores, part);
      ++counters_->node_recoveries;
    }
    // Offline capacity changed; the cached planning profile is stale.
    invalidate_profile(part);
    audit();
  }

  const trace::Trace& trace_;
  const SimConfig& config_;
  SimResult result_;
  SimCounters* counters_ = nullptr;
  Cluster cluster_;
  JobSoA jobs_;

  // Per-partition waiting queues (job indices), policy-ordered.
  std::vector<std::vector<std::uint32_t>> queues_;
  EventQueue<RunningJob> running_;
  // Per-partition running jobs for profile building; unordered, erased by
  // swap-with-back via the run_slot handle.
  std::vector<std::vector<RunningJob>> running_by_part_;

  // Incremental policy order: a queue is re-sorted only when its
  // membership grew (arrival) or, for wait-sensitive policies, when time
  // advanced since the last sort. Removals preserve relative order, and
  // a stable sort of an already-ordered queue is the identity, so
  // skipping the redundant sorts is outcome-identical to sorting every
  // pass.
  std::vector<std::uint8_t> sort_dirty_;
  std::vector<double> sorted_at_;
  bool time_dependent_ = false;

  // Incrementally maintained planned-availability profiles, one per
  // partition: rebuilt in place when stale (time advanced or a job
  // completed), extended in place when a job starts at the cached
  // timestamp. The scratch profiles below reuse their step storage
  // across passes, so steady-state scheduling does not allocate.
  std::vector<ProfileCache> profiles_;
  ResourceProfile work_profile_{0.0, 1};   ///< mutable pass-local copy
  ResourceProfile cand_profile_{0.0, 1};   ///< relaxed-candidate trial
  ResourceProfile audit_profile_{0.0, 1};  ///< auditor cross-check rebuild
  std::vector<std::pair<double, std::uint64_t>> ends_;

  std::vector<double> score_;          ///< per-job policy score at sort time
  std::vector<std::uint32_t> to_start_;
  std::vector<std::uint32_t> victims_;

  std::size_t next_arrival_ = 0;
  double now_ = 0.0;
  double ema_wait_ = 0.0;
  bool ema_init_ = false;
  std::size_t total_queued_ = 0;

  // Fault injection. All fault state is allocated only when the config
  // enables faults; the disabled path must stay bit-identical to the
  // fault-free simulator.
  bool faults_on_ = false;
  std::optional<fault::FaultProcess> faults_;
  EventQueue<RetryEvent> retries_;

  // DAG precedence + straggler hedging. Like faults, both are opt-in and
  // their disabled paths stay bit-identical to the pre-DAG simulator.
  bool dag_on_ = false;
  bool cp_scored_ = false;              ///< CriticalPath policy with DAG lanes
  std::vector<std::uint32_t> released_; ///< children unblocked this batch
  std::vector<std::uint32_t> cascade_;  ///< abandon-descendants DFS stack
  bool hedging_on_ = false;
  EventQueue<HedgeEvent> hedge_checks_;

  std::optional<SimAuditor> auditor_;
};

LUMOS_HOT_PATH SimResult SimEngine::run() {
  const auto jobs = trace_.jobs();
  result_.outcomes.assign(jobs.size(), JobOutcome{});
  counters_ = &result_.counters;
  if (jobs.empty()) return result_;

  result_.used_oracle_runtimes = jobs_.build(trace_, cluster_);

  const std::size_t nparts = cluster_.partitions();
  queues_.resize(nparts);
  running_by_part_.resize(nparts);
  sort_dirty_.assign(nparts, 1);
  sorted_at_.assign(nparts, -1.0);
  time_dependent_ = policy_is_time_dependent(config_.policy);
  profiles_.resize(nparts);
  score_.resize(jobs.size());

  faults_on_ = config_.fault.enabled();
  if (faults_on_) {
    std::vector<std::uint64_t> caps(nparts);
    for (std::size_t p = 0; p < nparts; ++p) caps[p] = cluster_.capacity(p);
    faults_.emplace(config_.fault, caps);
    jobs_.enable_fault_state();
  }

  // Precedence lanes only when the trace actually carries edges (and the
  // edges must validate — cycles, self-edges, and unknown parents throw).
  dag_on_ = trace::has_dependencies(trace_);
  if (dag_on_) jobs_.enable_dag_state(trace_);
  cp_scored_ = config_.policy == PolicyKind::CriticalPath && dag_on_;
  hedging_on_ = config_.hedge.enabled();
  if (hedging_on_) jobs_.enable_hedge_state(trace_);

  if (config_.audit) {
    auditor_.emplace(*counters_, jobs.size(), config_.audit_fatal);
  }

  // Main event loop. With faults on, the queue can be non-empty while
  // nothing runs (all cores offline, retries pending), so the loop also
  // keys on retries and queued work; the fault stream itself is infinite
  // and never keeps the loop alive.
  while (next_arrival_ < jobs_.size() || !running_.empty() ||
         !retries_.empty() || (faults_on_ && total_queued_ > 0)) {
    double next_time = std::numeric_limits<double>::infinity();
    if (next_arrival_ < jobs_.size()) {
      next_time = std::min(next_time, jobs_.submit(next_arrival_));
    }
    if (!running_.empty()) next_time = std::min(next_time, running_.top().end);
    if (!retries_.empty()) {
      next_time = std::min(next_time, retries_.top().time);
    }
    if (hedging_on_ && !hedge_checks_.empty()) {
      next_time = std::min(next_time, hedge_checks_.top().time);
    }
    if (faults_on_) next_time = std::min(next_time, faults_->peek()->time);
    now_ = std::max(now_, next_time);
    ++counters_->event_batches;

    // Process all completions at or before `now`, in event_before order.
    while (!running_.empty() && running_.top().end <= now_ + kEps) {
      const RunningJob r = running_.top();
      running_.pop();
      // An entry whose epoch is stale describes an execution attempt a
      // node failure already tore down; the teardown in interrupt() was
      // this job's single departure from the running set.
      if (faults_on_ && jobs_.epoch(r.index) != r.epoch) continue;
      // First finish of a hedged pair wins: tear the loser down before
      // touching the winner's slot (the teardown may move it). A pair
      // ending at the same instant drains the primary first (its key's
      // seq is even), which then tombstones the duplicate's entry — a
      // hedged job leaves the running set exactly once.
      if (hedging_on_ && jobs_.hedge_active(r.index)) cancel_hedge_loser(r);
      cancel_hedge_check(r.index);
      cluster_.release(r.cores, r.partition);
      // Swap-erase the running slot; patch the moved job's handle.
      auto& vec = running_by_part_[r.partition];
      const std::uint32_t slot =
          r.hedge != 0 ? jobs_.hedge_slot(r.index) : jobs_.run_slot(r.index);
      if (slot >= vec.size() || vec[slot].index != r.index ||
          vec[slot].hedge != r.hedge) {
        // lumos-lint: allow(hot-throw) corrupted run_slot handle means the swap-erase patching broke; fail loudly
        throw InternalError("running-slot handle out of sync");
      }
      remove_running_slot(vec, slot);
      jobs_.set_location(r.index, JobLocation::Finished);
      // A release frees planned capacity the cached profile still holds
      // reserved; it must be rebuilt on next use.
      invalidate_profile(r.partition);
      result_.makespan = std::max(result_.makespan, r.end);
      auto& outcome = result_.outcomes[r.index];
      outcome.finish_time = r.end;
      if (r.hedge != 0) {
        outcome.hedge_won = true;
        ++counters_->hedges_won;
      }
      ++counters_->completions;
      if (faults_on_ || hedging_on_) {
        const double useful =
            r.hedge != 0 ? jobs_.hedge_run(r.index) : jobs_.run(r.index);
        result_.goodput_core_hours +=
            useful * static_cast<double>(r.cores) / 3600.0;
      }
      if (dag_on_) {
        // The winner's completion satisfies one parent edge per child;
        // children whose last parent this was are released below, after
        // the batch drains, sorted by job index so the release order does
        // not depend on the order completions left the event queue.
        for (const std::uint32_t* c = jobs_.children_begin(r.index);
             c != jobs_.children_end(r.index); ++c) {
          if (--jobs_.unmet_parents(*c) == 0 &&
              jobs_.location(*c) == JobLocation::Blocked) {
            released_.push_back(*c);
          }
        }
      }
      audit();
    }
    if (dag_on_ && !released_.empty()) release_ready_children();
    // Node failures/recoveries at or before `now` (after completions: a
    // job ending exactly when its node dies is considered done).
    if (faults_on_) {
      while (faults_->peek()->time <= now_ + kEps) {
        handle_node_event(faults_->pop());
      }
    }
    // Interrupted jobs whose resubmission backoff has elapsed re-enter
    // their queue like fresh arrivals (but keep their original submit
    // time for policy scores and metrics).
    while (!retries_.empty() && retries_.top().time <= now_ + kEps) {
      const RetryEvent rt = retries_.top();
      retries_.pop();
      const std::size_t part = jobs_.partition(rt.index);
      queues_[part].push_back(rt.index);
      jobs_.set_location(rt.index, JobLocation::Queued);
      sort_dirty_[part] = 1;
      ++total_queued_;
      audit();
    }
    // Enqueue all arrivals at or before `now`.
    while (next_arrival_ < jobs_.size() &&
           jobs_.submit(next_arrival_) <= now_ + kEps) {
      const auto idx = static_cast<std::uint32_t>(next_arrival_);
      ++next_arrival_;
      if (dag_on_) {
        // Descendants of dead parents were cascade-abandoned before they
        // arrived; jobs with unfinished parents park in Blocked until
        // their last parent's completion releases them.
        if (jobs_.location(idx) == JobLocation::Abandoned) continue;
        if (jobs_.unmet_parents(idx) > 0) {
          jobs_.set_location(idx, JobLocation::Blocked);
          ++counters_->arrivals;
          audit();
          continue;
        }
      }
      const std::size_t part = jobs_.partition(idx);
      queues_[part].push_back(idx);
      jobs_.set_location(idx, JobLocation::Queued);
      sort_dirty_[part] = 1;
      ++total_queued_;
      ++counters_->arrivals;
      audit();
    }
    // Hedge-check timers at or before `now`: still-running stragglers get
    // a duplicate if the cores are free. Checked before the scheduling
    // round, so a launched duplicate is planned around immediately; at
    // equal instants hedges therefore outrank queued work for spare cores
    // (the straggler is already holding up its workflow's critical path).
    if (hedging_on_) {
      while (!hedge_checks_.empty() &&
             hedge_checks_.top().time <= now_ + kEps) {
        const HedgeEvent hv = hedge_checks_.top();
        hedge_checks_.pop();
        jobs_.hedge_check_time(hv.index) = -1.0;
        try_launch_hedge(hv.index);
        audit();
      }
    }
    result_.max_queue_length =
        std::max(result_.max_queue_length, total_queued_);
    schedule_all();
  }

  counters_->events = counters_->completions + counters_->arrivals;
  counters_->events_cancelled =
      running_.cancelled_total() + hedge_checks_.cancelled_total();
  return result_;
}

}  // namespace

SimResult simulate(const trace::Trace& trace, const SimConfig& config) {
  LUMOS_REQUIRE(trace.is_sorted_by_submit(),
                "simulate requires a submit-sorted trace");
  SimResult result = SimEngine(trace, config).run();
  // Publish the event-loop counters; deterministic for deterministic input.
  const SimCounters& c = result.counters;
  obs::Registry& registry = obs::Registry::global();
  registry.counter("sim.events").add(c.events);
  registry.counter("sim.event_batches").add(c.event_batches);
  registry.counter("sim.scheduling_passes").add(c.scheduling_passes);
  registry.counter("sim.backfill_attempts").add(c.backfill_attempts);
  registry.counter("sim.backfill_successes").add(c.backfill_successes);
  registry.counter("sim.profile_cache_hits").add(c.profile_cache_hits);
  registry.counter("sim.profile_rebuilds").add(c.profile_rebuilds);
  registry.counter("sim.profile_invalidations").add(c.profile_invalidations);
  if (config.fault.enabled()) {
    // Published only for fault-injected runs so fault-free snapshots stay
    // identical to the pre-fault observability surface.
    registry.counter("sim.node_failures").add(c.node_failures);
    registry.counter("sim.node_recoveries").add(c.node_recoveries);
    registry.counter("sim.jobs_interrupted").add(c.jobs_interrupted);
    registry.counter("sim.retries").add(c.retries);
    registry.counter("sim.jobs_abandoned").add(c.jobs_abandoned);
    registry.gauge("sim.work_lost_core_hours").set(c.work_lost_core_hours);
  }
  if (trace::has_dependencies(trace) || config.hedge.enabled()) {
    // Published only when precedence or hedging is in play, so plain
    // replay snapshots stay identical to the pre-DAG observability
    // surface (same gating discipline as the fault counters above).
    registry.counter("sim.dag_releases").add(c.dag_releases);
    registry.counter("sim.dag_abandoned").add(c.dag_abandoned);
    registry.counter("sim.events_cancelled").add(c.events_cancelled);
    registry.counter("sim.hedges_launched").add(c.hedges_launched);
    registry.counter("sim.hedges_won").add(c.hedges_won);
    registry.counter("sim.hedges_cancelled").add(c.hedges_cancelled);
    registry.gauge("sim.hedge_wasted_core_hours")
        .set(c.hedge_wasted_core_hours);
  }
  return result;
}

}  // namespace lumos::sim
