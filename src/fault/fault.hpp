// Deterministic node failure/recovery process for the simulator.
//
// Each partition is modelled as `nodes_per_partition` equal slices of its
// core capacity; every node alternates between up and down states with
// exponentially distributed sojourn times (Exp(MTBF) up, Exp(MTTR) down),
// the renewal model high-fidelity cluster simulators use for machine
// faults. Draw streams are per-node (seeded by mixing the config seed with
// the partition and node indices), so the event sequence for a given
// FaultConfig is bit-reproducible regardless of how far ahead the consumer
// peeks, and ties are broken by (time, partition, node).
//
// The process is lazy: it materialises only the next event per node and is
// therefore an infinite stream — the simulator stops pulling once its own
// work (arrivals, running jobs, retries) is exhausted.
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace lumos::fault {

/// What the simulator does with a job interrupted by a node failure.
enum class RetryPolicy {
  Resubmit,      ///< Re-enter the queue after an exponential backoff.
  RequeueFront,  ///< Re-enter immediately at the head of its queue.
  Abandon,       ///< Give up: the job leaves the system as Failed.
};

[[nodiscard]] std::string to_string(RetryPolicy policy);

/// Fault-injection parameters. The default (node_mtbf_s == 0) disables the
/// process entirely, which the simulator treats as "fault-free world".
struct FaultConfig {
  /// Mean time between failures per node, seconds. 0 disables faults.
  double node_mtbf_s = 0.0;
  /// Mean time to repair per node, seconds.
  double node_mttr_s = 3600.0;
  /// Nodes each partition's capacity is sliced into.
  std::uint32_t nodes_per_partition = 16;
  RetryPolicy retry = RetryPolicy::Resubmit;
  /// Interruptions after which a job is abandoned (Resubmit/RequeueFront).
  std::uint32_t max_retries = 3;
  /// Base resubmission delay, doubled per attempt, seconds.
  double retry_backoff_s = 300.0;
  /// Checkpoint interval, seconds; 0 means no checkpoints (an interrupted
  /// job loses all elapsed work, otherwise only work since the last
  /// multiple of this interval).
  double checkpoint_interval_s = 0.0;
  std::uint64_t seed = 42;

  [[nodiscard]] bool enabled() const noexcept {
    return node_mtbf_s > 0.0 && nodes_per_partition > 0;
  }
};

/// One node state transition.
struct NodeEvent {
  double time = 0.0;
  std::uint32_t partition = 0;
  std::uint32_t node = 0;
  /// Cores this node contributes to its partition.
  std::uint64_t cores = 0;
  /// true = the node fails at `time`; false = it recovers.
  bool failure = true;
};

/// Lazy merged stream of NodeEvents across all nodes, ordered by
/// (time, partition, node).
class FaultProcess {
 public:
  /// `partition_capacities[p]` is partition p's core capacity; each is
  /// split into config.nodes_per_partition near-equal nodes (remainder
  /// cores go to the lowest-numbered nodes; zero-core nodes are skipped).
  /// Requires config.enabled().
  FaultProcess(const FaultConfig& config,
               std::span<const std::uint64_t> partition_capacities);

  /// Next event without consuming it. Never empty: the renewal process is
  /// infinite (nullopt only for a process over zero usable nodes).
  [[nodiscard]] std::optional<NodeEvent> peek() const;

  /// Consumes and returns the next event, scheduling that node's
  /// subsequent transition.
  NodeEvent pop();

 private:
  struct Node {
    std::uint32_t partition = 0;
    std::uint32_t node = 0;
    std::uint64_t cores = 0;
    util::Rng rng;
    double next_time = 0.0;
    bool next_is_failure = true;
  };
  struct HeapEntry {
    double time;
    std::uint32_t partition;
    std::uint32_t node;
    std::size_t slot;  // index into nodes_
    bool operator>(const HeapEntry& o) const noexcept {
      if (time != o.time) return time > o.time;
      if (partition != o.partition) return partition > o.partition;
      return node > o.node;
    }
  };

  FaultConfig config_;
  std::vector<Node> nodes_;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap_;
};

}  // namespace lumos::fault
