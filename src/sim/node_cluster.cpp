#include "sim/node_cluster.hpp"

#include <algorithm>
#include <deque>

#include "sim/event_queue.hpp"
#include "util/error.hpp"

namespace lumos::sim {

namespace {

constexpr std::uint32_t kGpusPerNode = 8;  ///< a typical DL node

}  // namespace

std::string_view to_string(PackingPolicy p) noexcept {
  switch (p) {
    case PackingPolicy::FirstFit: return "first-fit";
    case PackingPolicy::BestFit: return "best-fit";
    case PackingPolicy::WorstFit: return "worst-fit";
  }
  return "?";
}

NodeCluster::NodeCluster(std::uint32_t nodes, std::uint32_t gpus_per_node,
                         PackingPolicy policy)
    : free_(nodes, gpus_per_node),
      gpus_per_node_(gpus_per_node),
      free_total_(static_cast<std::uint64_t>(nodes) * gpus_per_node),
      policy_(policy) {
  LUMOS_REQUIRE(nodes > 0 && gpus_per_node > 0,
                "NodeCluster needs positive dimensions");
}

std::int64_t NodeCluster::pick_node(std::uint32_t gpus) const noexcept {
  std::int64_t best = -1;
  for (std::size_t n = 0; n < free_.size(); ++n) {
    if (free_[n] < gpus) continue;
    if (policy_ == PackingPolicy::FirstFit) return static_cast<std::int64_t>(n);
    if (best < 0) {
      best = static_cast<std::int64_t>(n);
      continue;
    }
    const auto b = static_cast<std::size_t>(best);
    if (policy_ == PackingPolicy::BestFit ? free_[n] < free_[b]
                                          : free_[n] > free_[b]) {
      best = static_cast<std::int64_t>(n);
    }
  }
  return best;
}

bool NodeCluster::can_place(std::uint64_t gpus) const noexcept {
  if (gpus == 0 || gpus > total_gpus()) return false;
  if (gpus <= gpus_per_node_) {
    return pick_node(static_cast<std::uint32_t>(gpus)) >= 0;
  }
  // Gang placement: full nodes plus (optionally) a remainder slice.
  const std::uint64_t full = gpus / gpus_per_node_;
  const auto rem = static_cast<std::uint32_t>(gpus % gpus_per_node_);
  std::uint64_t idle = 0;
  bool rem_ok = rem == 0;
  for (const auto f : free_) {
    if (f == gpus_per_node_) {
      ++idle;
    } else if (!rem_ok && f >= rem) {
      rem_ok = true;
    }
  }
  if (rem > 0 && !rem_ok && idle > full) rem_ok = true;  // spare idle node
  return idle >= full && rem_ok;
}

std::vector<NodeCluster::Slice> NodeCluster::place(std::uint64_t gpus) {
  std::vector<Slice> slices;
  if (!can_place(gpus)) return slices;
  if (gpus <= gpus_per_node_) {
    const auto n = pick_node(static_cast<std::uint32_t>(gpus));
    slices.push_back({static_cast<std::uint32_t>(n),
                      static_cast<std::uint32_t>(gpus)});
  } else {
    std::uint64_t full = gpus / gpus_per_node_;
    auto rem = static_cast<std::uint32_t>(gpus % gpus_per_node_);
    for (std::size_t n = 0; n < free_.size() && full > 0; ++n) {
      if (free_[n] == gpus_per_node_) {
        slices.push_back({static_cast<std::uint32_t>(n), gpus_per_node_});
        --full;
      }
    }
    if (rem > 0) {
      // Prefer a partially used node for the remainder; fall back to an
      // idle one not already taken.
      std::int64_t rem_node = -1;
      for (std::size_t n = 0; n < free_.size(); ++n) {
        const bool taken =
            std::any_of(slices.begin(), slices.end(),
                        [&](const Slice& s) { return s.node == n; });
        if (taken || free_[n] < rem) continue;
        if (free_[n] < gpus_per_node_) {
          rem_node = static_cast<std::int64_t>(n);
          break;
        }
        if (rem_node < 0) rem_node = static_cast<std::int64_t>(n);
      }
      slices.push_back({static_cast<std::uint32_t>(rem_node), rem});
    }
  }
  for (const auto& s : slices) {
    free_[s.node] -= s.gpus;
    free_total_ -= s.gpus;
  }
  return slices;
}

void NodeCluster::release(const std::vector<Slice>& slices) {
  for (const auto& s : slices) {
    free_[s.node] = std::min<std::uint32_t>(gpus_per_node_,
                                            free_[s.node] + s.gpus);
    free_total_ = std::min(free_total_ + s.gpus, total_gpus());
  }
}

PackingMetrics simulate_packing(const trace::Trace& trace,
                                const PackingConfig& config) {
  LUMOS_REQUIRE(trace.is_sorted_by_submit(),
                "packing simulation needs a submit-sorted trace");
  PackingMetrics m;
  if (trace.empty()) return m;

  const std::uint64_t total =
      std::max<std::uint64_t>(1, trace.spec().primary_capacity());
  const std::uint32_t node_count = static_cast<std::uint32_t>(
      (total + kGpusPerNode - 1) / kGpusPerNode);
  NodeCluster cluster(node_count, kGpusPerNode, config.policy);

  // POD queue entry — slices live out-of-line in `slices_of`, keyed by
  // job index, so the entry stays cheap to move through the heap and
  // same-instant completions release in job order (the id tie-break of
  // `event_before`), not heap insertion order.
  struct Running {
    double end;
    std::uint64_t gpus;
    std::uint32_t index;
    [[nodiscard]] EventKey key() const noexcept {
      return {end, EventKind::Finish, index, 0};
    }
  };
  EventQueue<Running> running;
  std::vector<std::vector<NodeCluster::Slice>> slices_of(
      config.pooled ? 0 : trace.size());
  std::deque<std::size_t> queue;
  std::uint64_t pooled_free = cluster.total_gpus();

  const auto jobs = trace.jobs();
  std::size_t next = 0;
  double now = 0.0;
  double wait_sum = 0.0;
  double busy = 0.0;
  double blocked_free_sum = 0.0;

  auto try_start = [&]() {
    while (!queue.empty()) {
      const std::size_t job_index = queue.front();
      const auto& j = jobs[job_index];
      const std::uint64_t gpus =
          std::min<std::uint64_t>(std::max<std::uint32_t>(j.cores, 1),
                                  cluster.total_gpus());
      if (config.pooled) {
        if (gpus > pooled_free) break;
        pooled_free -= gpus;
        running.push({now + j.run_time, gpus,
                      static_cast<std::uint32_t>(job_index)});
      } else {
        if (!cluster.can_place(gpus)) {
          // Head blocked: record visible-but-unusable capacity.
          blocked_free_sum += static_cast<double>(cluster.free_gpus());
          ++m.blocked_events;
          break;
        }
        slices_of[job_index] = cluster.place(gpus);
        running.push({now + j.run_time, gpus,
                      static_cast<std::uint32_t>(job_index)});
      }
      wait_sum += now - j.submit_time;
      busy += static_cast<double>(gpus) * j.run_time;
      ++m.jobs;
      queue.pop_front();
    }
  };

  while (next < jobs.size() || !running.empty()) {
    double t;
    if (next < jobs.size() && !running.empty()) {
      t = std::min(jobs[next].submit_time, running.top().end);
    } else if (next < jobs.size()) {
      t = jobs[next].submit_time;
    } else {
      t = running.top().end;
    }
    now = std::max(now, t);
    while (!running.empty() && running.top().end <= now + 1e-9) {
      const auto r = running.top();
      running.pop();
      if (config.pooled) {
        pooled_free += r.gpus;
      } else {
        cluster.release(slices_of[r.index]);
        slices_of[r.index].clear();
      }
      m.makespan = std::max(m.makespan, r.end);
    }
    while (next < jobs.size() && jobs[next].submit_time <= now + 1e-9) {
      queue.push_back(next++);
    }
    try_start();
  }
  if (m.jobs > 0) m.avg_wait = wait_sum / static_cast<double>(m.jobs);
  if (m.makespan > 0.0) {
    m.utilization =
        busy / (static_cast<double>(cluster.total_gpus()) * m.makespan);
  }
  if (m.blocked_events > 0) {
    m.mean_blocked_free_gpus =
        blocked_free_sum / static_cast<double>(m.blocked_events);
  }
  return m;
}

}  // namespace lumos::sim
