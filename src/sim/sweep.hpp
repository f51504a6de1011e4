// Sharded simulation sweeps.
//
// A sweep is a list of independent (trace, config) points — the
// (seed, system, policy) grids behind Figs. 9-12 and Table 2 — fanned
// out over lumos::util::ThreadPool. Each shard runs with a PRIVATE
// obs::Registry, so no shard ever observes another's instruments, and
// the per-point results land in a vector indexed like the input.
//
// Determinism contract (DESIGN.md §4f):
//  * Every point's SimResult/SimMetrics is bit-identical to running that
//    point serially — shards share nothing mutable, so thread count and
//    completion order cannot leak into results.
//  * The combined observability snapshot is produced by merging the
//    shard registries IN SHARD-INDEX ORDER (never completion order):
//    counters add, gauges take the last-merged value. Same points in,
//    same merged snapshot out.
//  * Failures propagate deterministically: the exception surfaced is the
//    one from the lowest-indexed failing point (ThreadPool::parallel_for
//    rethrows by chunk index, and point validation happens up front).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace lumos::sim {

/// One independent sweep point: a trace (by index into the caller's
/// trace list, so N policies over one system share one trace) plus the
/// full simulator config to run it under.
struct SweepPoint {
  std::size_t trace_index = 0;
  SimConfig config;
  std::string label;  ///< stable identifier for reports ("theta.sjf.easy")
};

struct SweepOptions {
  /// Worker threads; 0 uses the hardware concurrency. 1 is the serial
  /// reference the bit-identity tests compare against.
  std::size_t threads = 1;
};

/// Result of one shard, index-aligned with the input points.
struct ShardOutcome {
  SimResult result;
  SimMetrics metrics;
  obs::Snapshot observability;  ///< the shard's private registry
};

struct SweepOutcome {
  std::vector<ShardOutcome> shards;  ///< one per point, input order
  obs::Snapshot merged;              ///< shard snapshots merged by index
};

/// Runs every point; see the determinism contract above. Throws
/// InvalidArgument if a point references a missing trace.
[[nodiscard]] SweepOutcome sweep_shards(std::span<const trace::Trace> traces,
                                        std::span<const SweepPoint> points,
                                        const SweepOptions& options = {});

}  // namespace lumos::sim
