// The harness registry behind bench_runner, plus the two micro harnesses:
// one deterministic single-shot pass each, publishing domain counters
// (and, for micro_sim, the throughput gauges `lumos perf-gate` reads).
#include <algorithm>
#include <cstdint>
#include <ostream>

#include "common.hpp"
#include "harnesses.hpp"
#include "obs/registry.hpp"
#include "ml/gbrt.hpp"
#include "ml/linear.hpp"
#include "predict/features.hpp"
#include "sim/simulator.hpp"
#include "synth/generator.hpp"
#include "util/table.hpp"

namespace lumos::bench {

obs::Report run_micro_sim(const Args& args, std::ostream& out) {
  banner(out, "Micro: simulator event-loop throughput (single-shot)",
         "events scale with jobs; conservative backfilling does the most "
         "profile work, EASY the least");

  obs::Report report;
  report.harness = "micro_sim";
  report.figure = "Micro-benchmark: simulator";

  synth::GeneratorOptions options;
  options.seed = args.study.seed;
  options.duration_days = args.days_or(7.0);
  const auto trace = synth::generate_system("Theta", options);

  util::TextTable t({"backfill", "events", "backfilled", "sorts",
                     "profile rebuilds"});
  for (auto kind : {sim::BackfillKind::Easy, sim::BackfillKind::Conservative,
                    sim::BackfillKind::AdaptiveRelaxed}) {
    sim::SimConfig config;
    config.backfill.kind = kind;
    const auto result = sim::simulate(trace, config);
    const std::string key(to_string(kind));
    report.set("events." + key,
               static_cast<double>(result.counters.events));
    report.set("backfilled." + key,
               static_cast<double>(result.backfilled_jobs));
    t.add_row({key, std::to_string(result.counters.events),
               std::to_string(result.backfilled_jobs),
               std::to_string(result.counters.sort_invocations),
               std::to_string(result.counters.profile_rebuilds)});
  }
  out << "Theta, " << trace.size() << " jobs:\n" << t.render();

  // Throughput measurement for the bench:perf regression gate. The repeat
  // count is deterministic (sized from the trace so smoke runs process
  // ~50k jobs and are not noise-dominated); the timed loop publishes into
  // a private registry so the global counters above keep their
  // single-run values. Rates land in GAUGES — deliberately outside the
  // deterministic `metrics` section that --verify compares.
  const std::size_t repeats = std::max<std::size_t>(
      1, 50000 / std::max<std::size_t>(std::size_t{1}, trace.size()));
  obs::Registry scratch;
  std::uint64_t events = 0;
  auto& registry = obs::Registry::global();
  obs::ScopedTimer timer(registry.histogram("micro.sim_wall_seconds"));
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    sim::SimConfig config;
    config.backfill.kind = sim::BackfillKind::Easy;
    events += sim::simulate(trace, config, scratch).counters.events;
  }
  const double seconds = timer.elapsed_seconds();
  const double jobs_done = static_cast<double>(trace.size()) *
                           static_cast<double>(repeats);
  registry.gauge("sim.jobs_per_sec")
      .set(seconds > 0.0 ? jobs_done / seconds : 0.0);
  registry.gauge("sim.events_per_sec")
      .set(seconds > 0.0 ? static_cast<double>(events) / seconds : 0.0);
  registry.gauge("sim.throughput_repeats")
      .set(static_cast<double>(repeats));
  out << "throughput: " << repeats << " EASY repeats, "
      << static_cast<std::uint64_t>(jobs_done) << " jobs in "
      << util::fixed(seconds, 3) << " s ("
      << static_cast<std::uint64_t>(seconds > 0.0 ? jobs_done / seconds : 0.0)
      << " jobs/s)\n";
  return report;
}

obs::Report run_micro_ml(const Args& args, std::ostream& out) {
  banner(out, "Micro: prediction-model fit/predict timings (single-shot)",
         "linear regression fits orders of magnitude faster than GBRT; "
         "timings land in the obs histograms");

  obs::Report report;
  report.harness = "micro_ml";
  report.figure = "Micro-benchmark: prediction models";

  synth::GeneratorOptions options;
  options.seed = args.study.seed;
  options.duration_days = args.days_or(7.0);
  options.max_jobs = args.jobs_cap(8000, 2000);
  const auto trace = synth::generate_system("Philly", options);
  const auto feats = predict::extract_features(trace);
  const auto data = predict::build_dataset(feats, {});
  report.set("dataset_rows", static_cast<double>(data.size()));
  report.set("dataset_features", static_cast<double>(data.dims()));

  auto& registry = obs::Registry::global();
  {
    obs::ScopedTimer timer(registry.histogram("micro.fit_seconds.linear"));
    ml::LinearRegression model;
    model.fit(data);
    report.set("linear_weights",
               static_cast<double>(model.weights().size()));
  }
  {
    obs::ScopedTimer timer(registry.histogram("micro.fit_seconds.gbrt"));
    ml::GbrtOptions gbrt_options;
    gbrt_options.n_trees = 30;
    ml::GradientBoosting model(gbrt_options);
    model.fit(data);
    report.set("gbrt_trees", static_cast<double>(model.tree_count()));
  }
  out << "Philly dataset: " << data.size() << " rows x " << data.dims()
      << " features; fit timings recorded in micro.fit_seconds.*\n";
  return report;
}

const std::vector<HarnessInfo>& all_harnesses() {
  static const std::vector<HarnessInfo> kHarnesses = {
      {"table1_traces", "Table 1", run_table1_traces, {"jobs.", "users."}},
      {"fig1_geometries", "Figure 1", run_fig1_geometries,
       {"median_runtime_s.", "peak_hour_ratio."}},
      {"fig2_corehours", "Figure 2", run_fig2_corehours,
       {"dominant_size_share.", "dominant_length_share."}},
      {"fig3_utilization", "Figure 3", run_fig3_utilization,
       {"avg_utilization."}},
      {"fig4_waiting", "Figure 4", run_fig4_waiting, {"median_wait_s."}},
      {"fig5_wait_geometry", "Figure 5", run_fig5_wait_geometry,
       {"mean_wait_long_s."}},
      {"fig6_status", "Figure 6", run_fig6_status,
       {"passed_job_share.", "passed_corehour_share."}},
      {"fig7_failure_geometry", "Figure 7", run_fig7_failure_geometry,
       {"pass_rate_size_trend."}},
      {"fig8_user_repetition", "Figure 8", run_fig8_user_repetition,
       {"top3_share.", "top10_share."}},
      {"fig9_queue_resources", "Figure 9", run_fig9_queue_resources,
       {"mean_cores_calm."}},
      {"fig10_queue_runtime", "Figure 10", run_fig10_queue_runtime,
       {"median_run_calm_s."}},
      {"fig11_user_status", "Figure 11", run_fig11_user_status,
       {"failed_vs_passed_median."}},
      {"fig12_prediction", "Figure 12", run_fig12_prediction,
       {"underestimate_base.", "underestimate_elapsed.", "accuracy_base."}},
      {"table2_adaptive_backfill", "Table 2", run_table2_adaptive_backfill,
       {"wait_improvement.", "violation_reduction."}},
      {"ext_prediction_backfill", "Extension", run_ext_prediction_backfill,
       {"wait_s.", "killed_by_underestimate."}},
      {"ext_status_prediction", "Extension", run_ext_status_prediction,
       {"accuracy_gain.", "doomed_rate."}},
      {"ext_fragmentation", "Extension", run_ext_fragmentation,
       {"wait_penalty.", "util_drop."}},
      {"ext_fault_aware", "Extension", run_ext_fault_aware,
       {"waste_recall.", "precision."}},
      {"ext_lublin_baseline", "Extension", run_ext_lublin_baseline,
       {"median_runtime_s.", "peak_hour_ratio."}},
      {"ext_node_failures", "Extension", run_ext_node_failures,
       {"goodput_share.", "wasted_core_hours."}},
      {"ext_dag_hedging", "Extension", run_ext_dag_hedging,
       {"p99_slowdown.", "hedges."}},
      {"ext_sweep_scaling", "Extension", run_ext_sweep_scaling,
       {"wait_s.", "sweep."}},
      {"ext_stream_ingest", "Extension", run_ext_stream_ingest,
       {"rank_err.", "stream."}},
      {"ext_serve_chaos", "Extension", run_ext_serve_chaos, {"chaos."}},
      {"micro_sim", "Micro", run_micro_sim, {"events.", "backfilled."}},
      {"micro_ml", "Micro", run_micro_ml,
       {"dataset_rows", "dataset_features"}},
  };
  return kHarnesses;
}

}  // namespace lumos::bench
