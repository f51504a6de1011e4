// Node-level GPU placement and fragmentation.
//
// The aggregate-pool cluster model (sim/cluster.hpp) is exact for rigid
// CPU jobs, but DL clusters schedule *GPUs on nodes*: a job of up to one
// node's worth of GPUs must be placed on a single node, and a multi-node
// job needs whole idle nodes. Small jobs therefore strand GPUs ("beware of
// fragmentation", the paper's ref [46]) — one of the mechanisms behind
// Takeaway 5's low DL utilization. This module models that placement and
// quantifies the fragmentation penalty against the pool model.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace lumos::sim {

enum class PackingPolicy : std::uint8_t {
  FirstFit,  ///< first node with enough free GPUs
  BestFit,   ///< node with the least (but sufficient) free GPUs
  WorstFit,  ///< node with the most free GPUs (spreads load)
};

[[nodiscard]] std::string_view to_string(PackingPolicy p) noexcept;

/// A cluster of identical nodes with `gpus_per_node` GPUs each.
class NodeCluster {
 public:
  NodeCluster(std::uint32_t nodes, std::uint32_t gpus_per_node,
              PackingPolicy policy = PackingPolicy::BestFit);

  [[nodiscard]] std::uint64_t total_gpus() const noexcept {
    return static_cast<std::uint64_t>(free_.size()) * gpus_per_node_;
  }
  [[nodiscard]] std::uint64_t free_gpus() const noexcept {
    return free_total_;
  }

  /// Whether a job of `gpus` can be placed under gang-placement rules:
  /// <= gpus_per_node -> one node; otherwise ceil(g / gpn) nodes, all but
  /// possibly the last fully idle.
  [[nodiscard]] bool can_place(std::uint64_t gpus) const noexcept;

  /// Places the job; returns the allocation (node, gpus) pairs, empty when
  /// it does not fit (no partial placement).
  struct Slice {
    std::uint32_t node;
    std::uint32_t gpus;
  };
  [[nodiscard]] std::vector<Slice> place(std::uint64_t gpus);

  /// Returns a previous placement's GPUs.
  void release(const std::vector<Slice>& slices);

 private:
  std::vector<std::uint32_t> free_;  ///< free GPUs per node
  std::uint32_t gpus_per_node_;
  std::uint64_t free_total_;
  PackingPolicy policy_;

  [[nodiscard]] std::int64_t pick_node(std::uint32_t gpus) const noexcept;
};

/// FCFS packing simulation (no backfilling): replays a GPU trace onto a
/// NodeCluster of 8-GPU nodes and reports the fragmentation cost relative
/// to the aggregate-pool model.
struct PackingConfig {
  PackingPolicy policy = PackingPolicy::BestFit;
  /// When true, jobs run on an idealised pooled cluster instead (placement
  /// constraints off) — the comparison baseline.
  bool pooled = false;
};

struct PackingMetrics {
  std::size_t jobs = 0;
  double avg_wait = 0.0;
  double utilization = 0.0;
  double makespan = 0.0;
  /// Mean free-GPU count observed at moments the queue head was blocked —
  /// capacity visible but unusable (fragmentation evidence).
  double mean_blocked_free_gpus = 0.0;
  std::size_t blocked_events = 0;
};

[[nodiscard]] PackingMetrics simulate_packing(const trace::Trace& trace,
                                              const PackingConfig& config);

}  // namespace lumos::sim
