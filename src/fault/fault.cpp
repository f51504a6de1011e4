#include "fault/fault.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace lumos::fault {
namespace {

/// Sojourn draws are floored so a node never fails and recovers at the
/// same instant (which would make the failure unobservable) and the
/// stream always advances.
constexpr double kMinSojournS = 1e-3;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t partition,
                       std::uint64_t node) {
  // splitmix64 over (seed, partition, node) gives every node an
  // independent stream whose identity does not depend on draw order.
  std::uint64_t state = seed;
  state ^= util::splitmix64(state) + partition;
  state ^= util::splitmix64(state) + (node << 32);
  return util::splitmix64(state);
}

}  // namespace

std::string to_string(RetryPolicy policy) {
  switch (policy) {
    case RetryPolicy::Resubmit:
      return "resubmit";
    case RetryPolicy::RequeueFront:
      return "requeue_front";
    case RetryPolicy::Abandon:
      return "abandon";
  }
  return "unknown";
}

FaultProcess::FaultProcess(
    const FaultConfig& config,
    std::span<const std::uint64_t> partition_capacities)
    : config_(config) {
  LUMOS_REQUIRE(config.enabled(),
                "FaultProcess requires an enabled FaultConfig");
  LUMOS_REQUIRE(config.node_mttr_s > 0.0, "node_mttr_s must be positive");
  LUMOS_REQUIRE(!partition_capacities.empty(),
                "FaultProcess needs at least one partition");
  for (std::size_t p = 0; p < partition_capacities.size(); ++p) {
    const std::uint64_t capacity = partition_capacities[p];
    const std::uint64_t n = config.nodes_per_partition;
    const std::uint64_t base = capacity / n;
    const std::uint64_t rem = capacity % n;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t cores = base + (i < rem ? 1 : 0);
      if (cores == 0) continue;  // more nodes than cores: skip empty slices
      Node node{static_cast<std::uint32_t>(p),
                static_cast<std::uint32_t>(i), cores,
                util::Rng(mix_seed(config.seed, p, i)), 0.0, true};
      nodes_.push_back(std::move(node));
    }
  }
  for (std::size_t slot = 0; slot < nodes_.size(); ++slot) {
    // First transition: time-to-first-failure from an up node at t=0.
    Node& node = nodes_[slot];
    node.next_time = std::max(
        node.rng.exponential(1.0 / config_.node_mtbf_s), kMinSojournS);
    node.next_is_failure = true;
    heap_.push(HeapEntry{node.next_time, node.partition, node.node, slot});
  }
}

std::optional<NodeEvent> FaultProcess::peek() const {
  if (heap_.empty()) return std::nullopt;
  const HeapEntry& top = heap_.top();
  const Node& node = nodes_[top.slot];
  return NodeEvent{top.time, top.partition, top.node, node.cores,
                   node.next_is_failure};
}

NodeEvent FaultProcess::pop() {
  LUMOS_REQUIRE(!heap_.empty(), "pop() on an empty fault process");
  const HeapEntry top = heap_.top();
  heap_.pop();
  Node& node = nodes_[top.slot];
  const NodeEvent event{top.time, top.partition, top.node, node.cores,
                        node.next_is_failure};
  const double rate = node.next_is_failure ? 1.0 / config_.node_mttr_s
                                           : 1.0 / config_.node_mtbf_s;
  node.next_time =
      top.time + std::max(node.rng.exponential(rate), kMinSojournS);
  node.next_is_failure = !node.next_is_failure;
  heap_.push(HeapEntry{node.next_time, node.partition, node.node, top.slot});
  return event;
}

}  // namespace lumos::fault
