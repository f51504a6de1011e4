// Extension harness: sharded sweep scaling (sim::sweep_shards).
//
// Runs a (system × policy × backfill) sweep grid twice — serially
// (threads=1) and sharded over 8 ThreadPool workers — and checks the
// sharded results are bit-identical to the serial ones, point for point
// and metric for metric (the determinism contract of DESIGN.md §4f).
// Publishes the throughput/speedup gauges the bench:perf stage gates on:
//   sim.jobs_per_sec / sim.events_per_sec  (sharded run)
//   sweep.speedup                          (serial wall / sharded wall)
// Rates are gauges, not metrics: the deterministic `metrics` section
// carries the per-point scheduling results and the identity verdict.
#include <algorithm>
#include <cctype>
#include <ostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "harnesses.hpp"
#include "obs/registry.hpp"
#include "sim/sweep.hpp"
#include "synth/generator.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace lumos::bench {

namespace {

constexpr std::size_t kShardThreads = 8;

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

}  // namespace

obs::Report run_ext_sweep_scaling(const Args& args_in, std::ostream& out) {
  Args args = args_in;
  if (args.study.systems.empty()) args.study.systems = {"Theta", "Philly"};
  banner(out, "Extension: sharded sweep scaling (sim::sweep_shards)",
         "sharding independent sweep points over the thread pool scales "
         "near-linearly while every point stays bit-identical to the "
         "serial run (private per-shard registries, index-ordered merge)");

  obs::Report report;
  report.harness = "ext_sweep_scaling";
  report.figure = "Extension: sweep scaling";

  std::vector<trace::Trace> traces;
  traces.reserve(args.study.systems.size());
  std::size_t jobs_per_round = 0;
  for (const auto& system : args.study.systems) {
    synth::GeneratorOptions options;
    options.seed = args.study.seed;
    options.duration_days = args.days_or(7.0);
    traces.push_back(synth::generate_system(system, options));
  }

  std::vector<sim::SweepPoint> points;
  for (std::size_t ti = 0; ti < traces.size(); ++ti) {
    for (auto policy : {sim::PolicyKind::Fcfs, sim::PolicyKind::Sjf}) {
      for (auto kind : {sim::BackfillKind::Easy,
                        sim::BackfillKind::AdaptiveRelaxed}) {
        sim::SweepPoint point;
        point.trace_index = ti;
        point.config.policy = policy;
        point.config.backfill.kind = kind;
        point.label = lower(args.study.systems[ti]) + "." +
                      std::string(to_string(policy)) + "." +
                      std::string(to_string(kind));
        points.push_back(point);
        jobs_per_round += traces[ti].size();
      }
    }
  }

  // Deterministic repeat count: size the grid to ~200k simulated jobs so
  // smoke traces (~200 jobs/system) still yield stable wall times and
  // enough parallel slack for 8 workers to show their speedup.
  const std::size_t repeats = std::max<std::size_t>(
      1, 200000 / std::max<std::size_t>(std::size_t{1}, jobs_per_round));

  auto& registry = obs::Registry::global();
  sim::SweepOptions serial_options;
  serial_options.threads = 1;
  serial_options.repeats = repeats;
  double serial_seconds = 0.0;
  sim::SweepOutcome serial;
  {
    obs::ScopedTimer timer(registry.histogram("sweep.serial_seconds"));
    serial = sim::sweep_shards(traces, points, serial_options);
    serial_seconds = timer.elapsed_seconds();
  }

  sim::SweepOptions sharded_options = serial_options;
  sharded_options.threads = kShardThreads;
  double sharded_seconds = 0.0;
  sim::SweepOutcome sharded;
  {
    obs::ScopedTimer timer(registry.histogram("sweep.sharded_seconds"));
    sharded = sim::sweep_shards(traces, points, sharded_options);
    sharded_seconds = timer.elapsed_seconds();
  }

  // Golden bit-identity: every sharded point equals the serial run,
  // result- and metric-for-metric, and the index-ordered merges agree.
  std::size_t identical = 0;
  util::TextTable t({"point", "wait (s)", "util", "events", "identical"});
  std::uint64_t events_per_round = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& s = serial.shards[i];
    const auto& p = sharded.shards[i];
    const bool same = s.result == p.result && s.metrics == p.metrics;
    if (same) ++identical;
    events_per_round += s.result.counters.events;
    report.set("wait_s." + points[i].label, s.metrics.avg_wait);
    report.set("util." + points[i].label, s.metrics.utilization);
    t.add_row({points[i].label, util::fixed(s.metrics.avg_wait, 1),
               util::fixed(s.metrics.utilization, 4),
               std::to_string(s.result.counters.events),
               same ? "yes" : "NO"});
  }
  const bool merged_same = serial.merged.counters == sharded.merged.counters;
  report.set("sweep.points", static_cast<double>(points.size()));
  report.set("sweep.points_identical", static_cast<double>(identical));
  report.set("sweep.merged_counters_identical", merged_same ? 1.0 : 0.0);
  if (identical != points.size() || !merged_same) {
    throw InternalError(
        "sharded sweep diverged from the serial reference (" +
        std::to_string(identical) + "/" + std::to_string(points.size()) +
        " points identical)");
  }

  const double speedup =
      sharded_seconds > 0.0 ? serial_seconds / sharded_seconds : 0.0;
  const double total_jobs = static_cast<double>(jobs_per_round) *
                            static_cast<double>(repeats);
  registry.gauge("sweep.speedup").set(speedup);
  registry.gauge("sweep.threads").set(static_cast<double>(kShardThreads));
  registry.gauge("sweep.repeats").set(static_cast<double>(repeats));
  registry.gauge("sim.jobs_per_sec")
      .set(sharded_seconds > 0.0 ? total_jobs / sharded_seconds : 0.0);
  registry.gauge("sim.events_per_sec")
      .set(sharded_seconds > 0.0
               ? static_cast<double>(events_per_round) *
                     static_cast<double>(repeats) / sharded_seconds
               : 0.0);
  // The sharded run's merged counters become this harness's sim.* section.
  registry.merge(sharded.merged);

  out << t.render();
  out << points.size() << " points x " << repeats << " repeats: serial "
      << util::fixed(serial_seconds, 3) << " s, sharded ("
      << kShardThreads << " threads) " << util::fixed(sharded_seconds, 3)
      << " s, speedup " << util::fixed(speedup, 2) << "x\n";
  return report;
}

}  // namespace lumos::bench
