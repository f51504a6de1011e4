#include "sim/cluster.hpp"

#include <cassert>
#include <numeric>

#include "util/error.hpp"

namespace lumos::sim {

Cluster::Cluster(std::uint64_t capacity)
    : Cluster(std::vector<std::uint64_t>{capacity}) {}

Cluster::Cluster(std::vector<std::uint64_t> capacities)
    : capacity_(std::move(capacities)),
      free_(capacity_),
      offline_(capacity_.size(), 0) {
  LUMOS_REQUIRE(!capacity_.empty(), "cluster needs at least one partition");
  for (auto c : capacity_) {
    LUMOS_REQUIRE(c > 0, "cluster partitions must have positive capacity");
  }
  total_capacity_ =
      std::accumulate(capacity_.begin(), capacity_.end(), std::uint64_t{0});
}

Cluster Cluster::from_spec(const trace::SystemSpec& spec) {
  const std::uint64_t capacity = spec.primary_capacity();
  LUMOS_REQUIRE(capacity > 0, "system spec has zero primary capacity");
  const int vcs = spec.virtual_clusters;
  if (vcs <= 1) return Cluster(capacity);
  std::vector<std::uint64_t> parts(static_cast<std::size_t>(vcs));
  const std::uint64_t base = capacity / static_cast<std::uint64_t>(vcs);
  std::uint64_t rem = capacity % static_cast<std::uint64_t>(vcs);
  for (auto& p : parts) {
    p = base + (rem > 0 ? 1 : 0);
    if (rem > 0) --rem;
  }
  return Cluster(std::move(parts));
}

bool Cluster::allocate(std::uint64_t cores, std::size_t p) noexcept {
  if (p >= free_.size() || cores > free_[p]) return false;
  free_[p] -= cores;
  return true;
}

void Cluster::release(std::uint64_t cores, std::size_t p) noexcept {
  if (p >= free_.size()) return;
  assert(free_[p] + cores + offline_[p] <= capacity_[p] &&
         "release exceeds capacity");
  free_[p] += cores;
  if (free_[p] + offline_[p] > capacity_[p]) {
    free_[p] = capacity_[p] - offline_[p];
  }
}

void Cluster::fail(std::uint64_t cores, std::size_t p) {
  LUMOS_REQUIRE(p < free_.size(), "fail: partition out of range");
  LUMOS_REQUIRE(cores <= free_[p],
                "fail: failed cores must be freed (interrupted) first");
  free_[p] -= cores;
  offline_[p] += cores;
}

void Cluster::recover(std::uint64_t cores, std::size_t p) {
  LUMOS_REQUIRE(p < free_.size(), "recover: partition out of range");
  LUMOS_REQUIRE(cores <= offline_[p],
                "recover: more cores than are offline");
  offline_[p] -= cores;
  free_[p] += cores;
}

std::size_t Cluster::partition_for(std::int32_t vc) const noexcept {
  if (vc < 0 || partitions() == 1) return 0;
  return static_cast<std::size_t>(vc) % partitions();
}

}  // namespace lumos::sim
