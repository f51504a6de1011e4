// Extension harness: streaming ingest (stream::OnlineCharacterizer).
//
// The sketch-vs-exact accuracy gate and the throughput benchmark of the
// streaming "lumos-served" mode (DESIGN.md "Streaming mode"):
//   1. generates a synthetic trace, ingests it one job event at a time,
//      and checks every quantile the sketches answer against the exact
//      stats::Ecdf — the observed rank error must stay within the
//      configured epsilon() bound and the histogram's value error within
//      its relative_error() (throws InternalError otherwise);
//   2. re-ingests the stream sharded over a ThreadPool and merges in
//      shard order, checking the exact parts (counts, diurnal profile,
//      inter-arrival moments, histogram) are identical to serial ingest
//      and the merged sketch stays within epsilon — the merge
//      associativity contract behind Registry::merge-style composition;
//   3. times repeated serial ingest rounds and publishes the perf-gated
//      gauges: stream.events_per_sec and stream.peak_rss_mb.
// Deterministic metrics carry the observed error maxima and the identity
// verdicts; rates and RSS are gauges.
#include <algorithm>
#include <cmath>
#include <future>
#include <ostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "harnesses.hpp"
#include "obs/registry.hpp"
#include "stats/descriptive.hpp"
#include "stats/ecdf.hpp"
#include "stream/ingest.hpp"
#include "stream/online.hpp"
#include "synth/generator.hpp"
#include "util/error.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace lumos::bench {

namespace {

constexpr std::size_t kShards = 8;

/// Observed normalized rank error of `value` against the exact sorted
/// sample at target quantile q: 0 when q lies inside [F(value-),
/// F(value)] (ties make F jump; any rank in the jump is exact),
/// otherwise the distance to the nearer edge.
double rank_error(const std::vector<double>& sorted, double value,
                  double q) {
  const double n = static_cast<double>(sorted.size());
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), value);
  const auto hi = std::upper_bound(sorted.begin(), sorted.end(), value);
  const double f_below = static_cast<double>(lo - sorted.begin()) / n;
  const double f_at = static_cast<double>(hi - sorted.begin()) / n;
  if (q >= f_below && q <= f_at) return 0.0;
  return q < f_below ? f_below - q : q - f_at;
}

/// Max observed rank error of a sketch over a dense quantile grid.
double max_rank_error(const stats::QuantileSketch& sketch,
                      std::vector<double> sample) {
  std::sort(sample.begin(), sample.end());
  double worst = 0.0;
  for (int i = 0; i <= 1000; ++i) {
    const double q = static_cast<double>(i) / 1000.0;
    worst = std::max(worst,
                     rank_error(sample, sketch.quantile(q), q));
  }
  return worst;
}

/// Max observed relative value error of the histogram over the grid.
/// The DDSketch guarantee is against the order statistic at position
/// floor(q * (n - 1)) — NOT the interpolated type-7 value, which can sit
/// between two arbitrarily distant sample values and admits no relative
/// bound. Targets below the zero-bucket threshold are skipped.
double max_value_error(const stats::StreamingHistogram& hist,
                       std::vector<double> sample, double min_value) {
  std::sort(sample.begin(), sample.end());
  const double n = static_cast<double>(sample.size());
  double worst = 0.0;
  for (int i = 0; i <= 1000; ++i) {
    const double q = static_cast<double>(i) / 1000.0;
    const auto idx =
        static_cast<std::size_t>(std::floor(q * (n - 1.0)));
    const double exact = sample[std::min(idx, sample.size() - 1)];
    if (exact < min_value) continue;
    worst = std::max(worst, std::abs(hist.quantile(q) - exact) / exact);
  }
  return worst;
}

}  // namespace

obs::Report run_ext_stream_ingest(const Args& args_in, std::ostream& out) {
  Args args = args_in;
  if (args.study.systems.empty()) args.study.systems = {"Theta"};
  banner(out, "Extension: streaming ingest (stream::OnlineCharacterizer)",
         "one-pass sketches answer the paper's characterization queries "
         "within proven error bounds, in bounded memory, and sharded "
         "ingest merges back to the serial answer");

  obs::Report report;
  report.harness = "ext_stream_ingest";
  report.figure = "Extension: streaming characterization";

  synth::GeneratorOptions gen;
  gen.seed = args.study.seed;
  gen.duration_days = args.days_or(14.0);
  const trace::Trace trace =
      synth::generate_system(args.study.systems.front(), gen);
  const auto& jobs = trace.jobs();
  if (jobs.empty()) throw InternalError("generated trace is empty");

  stream::StreamConfig config;
  config.epoch_unix = trace.spec().epoch_unix;
  config.utc_offset_hours = trace.spec().utc_offset_hours;

  // --- serial ingest + exact reference ------------------------------
  stream::OnlineCharacterizer serial(config);
  std::vector<double> runtimes, waits, gaps;
  runtimes.reserve(jobs.size());
  waits.reserve(jobs.size());
  gaps.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    serial.ingest(jobs[i]);
    runtimes.push_back(jobs[i].run_time);
    waits.push_back(jobs[i].wait_time);
    if (i > 0) {
      gaps.push_back(
          std::max(0.0, jobs[i].submit_time - jobs[i - 1].submit_time));
    }
  }

  const double eps = serial.runtime_sketch().epsilon();
  const double runtime_err = max_rank_error(serial.runtime_sketch(), runtimes);
  const double wait_err = max_rank_error(serial.wait_sketch(), waits);
  const double gap_err = max_rank_error(serial.interarrival_sketch(), gaps);
  const double hist_err =
      max_value_error(serial.runtime_histogram(), runtimes, 1e-9);
  const double hist_bound = serial.runtime_histogram().relative_error();
  report.set("rank_err.runtime", runtime_err);
  report.set("rank_err.wait", wait_err);
  report.set("rank_err.interarrival", gap_err);
  report.set("rank_err.bound", eps);
  report.set("rank_err.histogram_value", hist_err);
  report.set("rank_err.histogram_bound", hist_bound);
  if (runtime_err > eps || wait_err > eps || gap_err > eps) {
    throw InternalError("sketch rank error exceeds the epsilon bound");
  }
  if (hist_err > hist_bound) {
    throw InternalError("histogram value error exceeds relative_error");
  }

  // --- sharded ingest + index-ordered merge -------------------------
  util::ThreadPool pool(kShards);
  std::vector<stream::OnlineCharacterizer> shards;
  shards.reserve(kShards);
  for (std::size_t s = 0; s < kShards; ++s) shards.emplace_back(config);
  {
    std::vector<std::future<void>> futures;
    futures.reserve(kShards);
    const std::size_t per = (jobs.size() + kShards - 1) / kShards;
    for (std::size_t s = 0; s < kShards; ++s) {
      futures.push_back(pool.submit([&, s] {
        const std::size_t begin = s * per;
        const std::size_t end = std::min(jobs.size(), begin + per);
        for (std::size_t i = begin; i < end; ++i) {
          shards[s].ingest(jobs[i]);
        }
      }));
    }
    for (auto& f : futures) f.get();
  }
  stream::OnlineCharacterizer merged(config);
  for (const auto& shard : shards) merged.merge(shard);

  const bool counts_same = merged.jobs() == serial.jobs();
  const bool hourly_same = merged.hourly() == serial.hourly();
  const bool moments_same =
      merged.interarrival_gaps() == serial.interarrival_gaps() &&
      std::abs(merged.interarrival_cv() - serial.interarrival_cv()) < 1e-9;
  const double merged_err = max_rank_error(merged.runtime_sketch(), runtimes);
  const double merged_hist_err =
      max_value_error(merged.runtime_histogram(), runtimes, 1e-9);
  report.set("stream.sharded_counts_identical", counts_same ? 1.0 : 0.0);
  report.set("stream.sharded_hourly_identical", hourly_same ? 1.0 : 0.0);
  report.set("stream.sharded_moments_identical", moments_same ? 1.0 : 0.0);
  report.set("rank_err.runtime_merged", merged_err);
  report.set("rank_err.histogram_value_merged", merged_hist_err);
  if (!counts_same || !hourly_same || !moments_same) {
    throw InternalError("sharded ingest diverged from serial ingest");
  }
  if (merged_err > eps || merged_hist_err > hist_bound) {
    throw InternalError("merged sketch error exceeds its bound");
  }

  // --- characterization metrics (deterministic) ---------------------
  serial.publish(report, "stream.");

  // --- throughput: repeated timed serial rounds ---------------------
  const std::size_t rounds = std::max<std::size_t>(
      1, args.jobs_cap(500000, 20000) / jobs.size());
  auto& registry = obs::Registry::global();
  double ingest_seconds = 0.0;
  {
    obs::ScopedTimer timer(registry.histogram("stream.ingest_seconds"));
    for (std::size_t r = 0; r < rounds; ++r) {
      stream::OnlineCharacterizer scratch(config);
      for (const auto& job : jobs) scratch.ingest(job);
    }
    ingest_seconds = timer.elapsed_seconds();
  }
  const double total_events =
      static_cast<double>(jobs.size()) * static_cast<double>(rounds);
  registry.gauge("stream.events_per_sec")
      .set(ingest_seconds > 0.0 ? total_events / ingest_seconds : 0.0);
  registry.gauge("stream.peak_rss_mb").set(stream::peak_rss_mb());
  registry.gauge("stream.rounds").set(static_cast<double>(rounds));
  registry.counter("stream.events")
      .add(static_cast<std::uint64_t>(total_events));

  util::TextTable t({"quantity", "observed", "bound"});
  t.add_row({"runtime rank err", util::fixed(runtime_err, 5),
             util::fixed(eps, 5)});
  t.add_row({"wait rank err", util::fixed(wait_err, 5),
             util::fixed(eps, 5)});
  t.add_row({"interarrival rank err", util::fixed(gap_err, 5),
             util::fixed(eps, 5)});
  t.add_row({"merged rank err", util::fixed(merged_err, 5),
             util::fixed(eps, 5)});
  t.add_row({"histogram value err", util::fixed(hist_err, 5),
             util::fixed(hist_bound, 5)});
  out << t.render();
  out << jobs.size() << " jobs, retained " << serial.retained_items()
      << " items across sketches (" << kShards
      << "-way sharded merge identical), ingest "
      << util::fixed(total_events / std::max(ingest_seconds, 1e-9), 0)
      << " events/s over " << rounds << " rounds\n";
  return report;
}

}  // namespace lumos::bench
