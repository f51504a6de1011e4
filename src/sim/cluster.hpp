// Cluster resource model.
//
// Like SchedGym, lumos schedules against an aggregate pool of cores per
// partition: rigid jobs request `cores` and hold them for their runtime.
// Partitions model Philly-style isolated virtual clusters (§III-B) — a job
// bound to VC k can only draw from partition k's capacity. Systems without
// VCs use a single partition.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/system_spec.hpp"

namespace lumos::sim {

class Cluster {
 public:
  /// Single-partition cluster with `capacity` cores.
  explicit Cluster(std::uint64_t capacity);

  /// Multi-partition cluster; partition i has capacities[i] cores.
  explicit Cluster(std::vector<std::uint64_t> capacities);

  /// Builds from a system spec: primary capacity split evenly across the
  /// spec's virtual clusters (1 partition when the spec has none).
  static Cluster from_spec(const trace::SystemSpec& spec);

  [[nodiscard]] std::size_t partitions() const noexcept {
    return free_.size();
  }
  [[nodiscard]] std::uint64_t capacity(std::size_t p = 0) const noexcept {
    return capacity_[p];
  }
  [[nodiscard]] std::uint64_t total_capacity() const noexcept {
    return total_capacity_;
  }
  [[nodiscard]] std::uint64_t free(std::size_t p = 0) const noexcept {
    return free_[p];
  }
  /// Cores on failed nodes: neither free nor allocated.
  [[nodiscard]] std::uint64_t offline(std::size_t p = 0) const noexcept {
    return offline_[p];
  }
  /// Cores currently held by running jobs.
  [[nodiscard]] std::uint64_t allocated(std::size_t p = 0) const noexcept {
    return capacity_[p] - free_[p] - offline_[p];
  }

  /// True when partition p currently has `cores` free.
  [[nodiscard]] bool fits(std::uint64_t cores, std::size_t p = 0) const
      noexcept {
    return cores <= free_[p];
  }

  /// Claims cores from partition p; returns false (no change) if they do
  /// not fit.
  [[nodiscard]] bool allocate(std::uint64_t cores, std::size_t p = 0) noexcept;

  /// Returns cores to partition p. Over-release is clamped (and indicates a
  /// caller bug; debug builds assert).
  void release(std::uint64_t cores, std::size_t p = 0) noexcept;

  /// Takes `cores` of partition p offline (node failure). The cores must
  /// currently be free: the simulator interrupts affected running jobs
  /// first, so the failed node's capacity is reclaimable by construction.
  void fail(std::uint64_t cores, std::size_t p = 0);

  /// Brings `cores` of partition p back online (node recovery).
  void recover(std::uint64_t cores, std::size_t p = 0);

  /// Maps a job's virtual-cluster id to a partition index (clamped).
  [[nodiscard]] std::size_t partition_for(std::int32_t vc) const noexcept;

 private:
  std::vector<std::uint64_t> capacity_;
  std::vector<std::uint64_t> free_;
  std::vector<std::uint64_t> offline_;  ///< degraded capacity per partition
  std::uint64_t total_capacity_ = 0;
};

}  // namespace lumos::sim
