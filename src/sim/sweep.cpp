#include "sim/sweep.hpp"

#include <utility>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace lumos::sim {

SweepOutcome sweep_shards(std::span<const trace::Trace> traces,
                          std::span<const SweepPoint> points,
                          const SweepOptions& options) {
  // Validate every point before any work is fanned out: a bad point
  // fails identically no matter how many threads run the good ones.
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].trace_index >= traces.size()) {
      throw InvalidArgument("sweep point '" + points[i].label +
                            "' references trace index " +
                            std::to_string(points[i].trace_index) +
                            " but only " + std::to_string(traces.size()) +
                            " traces were provided");
    }
  }

  SweepOutcome outcome;
  outcome.shards.resize(points.size());
  if (!points.empty()) {
    util::ThreadPool pool(options.threads);
    pool.parallel_for(0, points.size(), [&](std::size_t i) {
      const SweepPoint& point = points[i];
      const trace::Trace& trace = traces[point.trace_index];
      // Private registry per shard: the sim's counter publication goes
      // here and nowhere else, so shards cannot race on instruments and
      // the counters in this shard's snapshot are exactly this run's.
      obs::Registry registry;
      ShardOutcome& shard = outcome.shards[i];
      shard.result = simulate(trace, point.config, registry);
      shard.metrics =
          compute_metrics(trace, shard.result, point.config.bsld_bound);
      shard.observability = registry.snapshot();
    });
  }

  // Merge in shard-index order — NOT completion order — so the combined
  // snapshot is a pure function of the inputs.
  obs::Registry merged;
  for (const ShardOutcome& shard : outcome.shards) {
    merged.merge(shard.observability);
  }
  outcome.merged = merged.snapshot();
  return outcome;
}

}  // namespace lumos::sim
