// Tests for lumos::stream — the bounded-memory online characterization
// and the lumos-served ingest loop. The exact analyses in src/analysis
// are the reference: what the characterizer claims is exact must match
// them to floating-point noise; what is sketched must stay within the
// documented bounds. Labelled `tsan sanitize`: the concurrent sharded
// ingest test is this module's data-race probe.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <unistd.h>

#include "analysis/arrival.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "stats/descriptive.hpp"
#include "stream/checkpoint.hpp"
#include "stream/ingest.hpp"
#include "stream/online.hpp"
#include "stream/snapshot.hpp"
#include "stream/source.hpp"
#include "synth/generator.hpp"
#include "trace/swf.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/signal_util.hpp"
#include "util/thread_pool.hpp"

namespace lumos::stream {
namespace {

trace::Trace make_trace(std::size_t jobs = 3000, std::uint64_t seed = 42) {
  synth::GeneratorOptions options;
  options.seed = seed;
  options.duration_days = std::max(1.0, static_cast<double>(jobs) / 500.0);
  trace::Trace trace = synth::generate_system("Theta", options);
  return trace;
}

StreamConfig config_for(const trace::Trace& trace) {
  StreamConfig config;
  config.epoch_unix = trace.spec().epoch_unix;
  config.utc_offset_hours = trace.spec().utc_offset_hours;
  return config;
}

OnlineCharacterizer ingest_all(const trace::Trace& trace,
                               const StreamConfig& config) {
  OnlineCharacterizer chr(config);
  for (const auto& job : trace.jobs()) chr.ingest(job);
  return chr;
}

// ---- exactness against the batch analyses --------------------------------

TEST(OnlineCharacterizer, DiurnalProfileMatchesExactAnalysis) {
  const auto trace = make_trace();
  const auto chr = ingest_all(trace, config_for(trace));
  const auto exact = analysis::analyze_arrivals(trace);

  ASSERT_EQ(exact.hourly.size(), 24u);
  for (std::size_t h = 0; h < 24; ++h) {
    EXPECT_DOUBLE_EQ(chr.hourly()[h], exact.hourly[h]) << "hour " << h;
  }
  EXPECT_DOUBLE_EQ(chr.peak_ratio(), exact.peak_ratio);
  EXPECT_DOUBLE_EQ(chr.business_hours_share(), exact.business_hours_share);
}

TEST(OnlineCharacterizer, InterarrivalMomentsMatchExactStats) {
  const auto trace = make_trace();
  const auto chr = ingest_all(trace, config_for(trace));
  const auto gaps = trace.interarrival_times();
  const auto summary = stats::summarize(gaps);

  EXPECT_EQ(chr.interarrival_gaps(), gaps.size());
  EXPECT_NEAR(chr.interarrival_mean(), summary.mean,
              1e-9 * std::max(1.0, summary.mean));
  const double exact_cv =
      summary.mean > 0.0 ? summary.stddev / summary.mean : 0.0;
  EXPECT_NEAR(chr.interarrival_cv(), exact_cv, 1e-6 * std::max(1.0, exact_cv));
}

TEST(OnlineCharacterizer, SketchQuantilesWithinBound) {
  const auto trace = make_trace();
  const auto chr = ingest_all(trace, config_for(trace));
  auto runtimes = trace.run_times();
  std::sort(runtimes.begin(), runtimes.end());
  const double n = static_cast<double>(runtimes.size());
  const double eps = chr.runtime_sketch().epsilon();
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double estimate = chr.runtime_sketch().quantile(q);
    // Convert to rank space: the exact rank of the estimate must be
    // within eps of q (ties covered by the lower/upper bound interval).
    const auto lo = std::lower_bound(runtimes.begin(), runtimes.end(),
                                     estimate) -
                    runtimes.begin();
    const auto hi = std::upper_bound(runtimes.begin(), runtimes.end(),
                                     estimate) -
                    runtimes.begin();
    const double f_lo = static_cast<double>(lo) / n;
    const double f_hi = static_cast<double>(hi) / n;
    EXPECT_LE(f_lo - eps, q) << "q=" << q;
    EXPECT_GE(f_hi + eps, q) << "q=" << q;
  }
}

// ---- windows -------------------------------------------------------------

TEST(OnlineCharacterizer, TumblingWindows) {
  StreamConfig config;
  config.window_seconds = 100.0;
  OnlineCharacterizer chr(config);
  trace::Job job;
  for (double t : {10.0, 20.0, 90.0}) {  // window 0: 3 jobs
    job.submit_time = t;
    chr.ingest(job);
  }
  EXPECT_EQ(chr.windows_completed(), 0u);
  EXPECT_EQ(chr.open_window_jobs(), 3u);

  job.submit_time = 150.0;  // window 1 opens, window 0 completes
  chr.ingest(job);
  EXPECT_EQ(chr.windows_completed(), 1u);
  EXPECT_EQ(chr.last_window().jobs, 3u);
  EXPECT_DOUBLE_EQ(chr.last_window().start, 0.0);
  EXPECT_DOUBLE_EQ(chr.last_window().rate_per_hour, 3.0 / (100.0 / 3600.0));

  job.submit_time = 480.0;  // skips windows 2 and 3 entirely
  chr.ingest(job);
  EXPECT_EQ(chr.windows_completed(), 4u);
  EXPECT_EQ(chr.last_window().jobs, 1u);
  EXPECT_EQ(chr.open_window_jobs(), 1u);
}

// ---- merge semantics -----------------------------------------------------

TEST(OnlineCharacterizer, ContiguousShardMergeMatchesSerial) {
  const auto trace = make_trace();
  const auto config = config_for(trace);
  const auto serial = ingest_all(trace, config);

  constexpr std::size_t kShards = 4;
  const auto jobs = trace.jobs();
  const std::size_t per = (jobs.size() + kShards - 1) / kShards;
  OnlineCharacterizer merged(config);
  for (std::size_t s = 0; s < kShards; ++s) {
    OnlineCharacterizer shard(config);
    const std::size_t begin = s * per;
    const std::size_t end = std::min(jobs.size(), begin + per);
    for (std::size_t i = begin; i < end; ++i) shard.ingest(jobs[i]);
    merged.merge(shard);
  }

  // Exact state merges exactly: counts, profile, moments (contiguous
  // shards reconstruct the boundary gaps), histogram.
  EXPECT_EQ(merged.jobs(), serial.jobs());
  EXPECT_EQ(merged.hourly(), serial.hourly());
  EXPECT_EQ(merged.interarrival_gaps(), serial.interarrival_gaps());
  EXPECT_NEAR(merged.interarrival_cv(), serial.interarrival_cv(), 1e-9);
  EXPECT_DOUBLE_EQ(merged.first_submit(), serial.first_submit());
  EXPECT_DOUBLE_EQ(merged.last_submit(), serial.last_submit());
  for (int i = 0; i <= 100; ++i) {
    const double q = static_cast<double>(i) / 100.0;
    EXPECT_DOUBLE_EQ(merged.runtime_histogram().quantile(q),
                     serial.runtime_histogram().quantile(q));
  }
  // Sketch state merges within its bound.
  const double eps = serial.runtime_sketch().epsilon();
  auto runtimes = trace.run_times();
  std::sort(runtimes.begin(), runtimes.end());
  const double n = static_cast<double>(runtimes.size());
  for (double q : {0.25, 0.5, 0.9}) {
    const double estimate = merged.runtime_sketch().quantile(q);
    const auto lo = std::lower_bound(runtimes.begin(), runtimes.end(),
                                     estimate) -
                    runtimes.begin();
    const auto hi = std::upper_bound(runtimes.begin(), runtimes.end(),
                                     estimate) -
                    runtimes.begin();
    EXPECT_LE(static_cast<double>(lo) / n - eps, q);
    EXPECT_GE(static_cast<double>(hi) / n + eps, q);
  }
}

TEST(OnlineCharacterizer, MergeRequiresIdenticalConfig) {
  OnlineCharacterizer a;
  StreamConfig other;
  other.sketch_k = 100;
  OnlineCharacterizer b(other);
  EXPECT_THROW(a.merge(b), InvalidArgument);
}

// The tsan-labelled probe: shards ingest concurrently on the pool, each
// into private state, then merge in index order on the caller. Any
// hidden shared mutable state in the sketches would trip TSan here.
TEST(OnlineCharacterizer, ConcurrentShardedIngest) {
  const auto trace = make_trace(6000, 7);
  const auto config = config_for(trace);
  const auto jobs = trace.jobs();

  constexpr std::size_t kShards = 8;
  std::vector<OnlineCharacterizer> shards;
  shards.reserve(kShards);
  for (std::size_t s = 0; s < kShards; ++s) shards.emplace_back(config);

  util::ThreadPool pool(kShards);
  std::vector<std::future<void>> futures;
  futures.reserve(kShards);
  const std::size_t per = (jobs.size() + kShards - 1) / kShards;
  for (std::size_t s = 0; s < kShards; ++s) {
    futures.push_back(pool.submit([&, s] {
      const std::size_t begin = s * per;
      const std::size_t end = std::min(jobs.size(), begin + per);
      for (std::size_t i = begin; i < end; ++i) shards[s].ingest(jobs[i]);
    }));
  }
  for (auto& f : futures) f.get();

  OnlineCharacterizer merged(config);
  for (const auto& shard : shards) merged.merge(shard);
  const auto serial = ingest_all(trace, config);
  EXPECT_EQ(merged.jobs(), serial.jobs());
  EXPECT_EQ(merged.hourly(), serial.hourly());
  EXPECT_NEAR(merged.interarrival_cv(), serial.interarrival_cv(), 1e-9);
}

// ---- bounded memory ------------------------------------------------------

TEST(OnlineCharacterizer, BoundedUserTable) {
  StreamConfig config;
  config.max_tracked_users = 16;
  config.max_groups_per_user = 4;
  OnlineCharacterizer chr(config);
  util::Rng rng(5);
  trace::Job job;
  for (int i = 0; i < 20000; ++i) {
    job.submit_time = static_cast<double>(i);
    job.user = static_cast<std::uint32_t>(rng.uniform(0.0, 500.0));
    job.cores = static_cast<std::uint32_t>(1 + rng.uniform(0.0, 64.0));
    job.run_time = std::exp(rng.normal(4.0, 2.0));
    chr.ingest(job);
  }
  EXPECT_LE(chr.tracked_users(), 16u);
  EXPECT_GT(chr.untracked_jobs(), 0u);
  // Total retained slots stay bounded regardless of stream length.
  EXPECT_LT(chr.retained_items(), 10000u);
}

TEST(OnlineCharacterizer, RetainedItemsPlateau) {
  const auto trace = make_trace(12000, 13);
  const auto config = config_for(trace);
  OnlineCharacterizer chr(config);
  std::size_t at_half = 0;
  const auto jobs = trace.jobs();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    chr.ingest(jobs[i]);
    if (i == jobs.size() / 2) at_half = chr.retained_items();
  }
  // Doubling the stream must not double retained state.
  EXPECT_LT(chr.retained_items(), at_half + at_half / 2 + 500);
}

// ---- repetition ----------------------------------------------------------

TEST(OnlineCharacterizer, RepetitionFindsRepeatedConfigs) {
  StreamConfig config;
  config.min_jobs_per_user = 50;
  OnlineCharacterizer chr(config);
  trace::Job job;
  // User 1: 100 jobs, all the same (cores, runtime) config.
  job.user = 1;
  job.cores = 16;
  job.run_time = 3600.0;
  for (int i = 0; i < 100; ++i) {
    job.submit_time = static_cast<double>(i);
    chr.ingest(job);
  }
  // User 2: only 10 jobs — below the representative threshold.
  job.user = 2;
  for (int i = 0; i < 10; ++i) {
    job.submit_time = 200.0 + static_cast<double>(i);
    chr.ingest(job);
  }
  const auto rep = chr.repetition(3);
  EXPECT_EQ(rep.representative_users, 1u);
  EXPECT_DOUBLE_EQ(rep.topk_share, 1.0);
  EXPECT_DOUBLE_EQ(rep.mean_groups_per_user, 1.0);
}

// ---- publish -------------------------------------------------------------

TEST(OnlineCharacterizer, PublishEmitsDocumentedKeys) {
  const auto trace = make_trace();
  const auto chr = ingest_all(trace, config_for(trace));
  obs::Report report;
  chr.publish(report, "stream.");
  for (const char* key :
       {"stream.jobs", "stream.runtime_p50_s", "stream.wait_p50_s",
        "stream.interarrival_cv", "stream.peak_hour_ratio",
        "stream.business_hours_share", "stream.rep_top3_share",
        "stream.windows_completed", "stream.retained_items"}) {
    EXPECT_TRUE(report.metrics.contains(key)) << key;
  }
  EXPECT_DOUBLE_EQ(report.metrics.at("stream.jobs"),
                   static_cast<double>(trace.size()));
}

// ---- ingest loop ---------------------------------------------------------

/// Writes `content` to a per-process temp file and runs run_ingest over it.
IngestResult ingest_text(const std::string& content, IngestOptions options) {
  namespace fs = std::filesystem;
  struct RemoveOnExit {
    fs::path path;
    ~RemoveOnExit() { fs::remove(path); }
  } file{fs::temp_directory_path() /
         ("lumos_ingest_" + std::to_string(::getpid()) + ".swf")};
  {
    std::ofstream out(file.path, std::ios::binary);
    out << content;
  }
  options.input_path = file.path.string();
  return run_ingest(options);
}

std::string swf_text(const trace::Trace& trace) {
  std::ostringstream swf;
  trace::write_swf(swf, trace);
  return swf.str();
}

TEST(Ingest, StreamToEofMatchesBatchReader) {
  const auto trace = make_trace();
  IngestOptions options;
  options.config = config_for(trace);
  const auto result = ingest_text(swf_text(trace), options);
  EXPECT_EQ(result.events, trace.size());
  EXPECT_EQ(result.bad_rows, 0u);
  EXPECT_EQ(result.characterizer.jobs(), trace.size());
}

TEST(Ingest, BadRowBudget) {
  IngestOptions options;
  options.bad_row_budget = 1;
  const auto result = ingest_text("garbage row\n", options);
  EXPECT_EQ(result.bad_rows, 1u);
  EXPECT_EQ(result.events, 0u);

  IngestOptions strict;
  strict.bad_row_budget = 0;
  EXPECT_THROW((void)ingest_text("garbage row\n", strict), ParseError);
}

TEST(Ingest, MaxEventsStopsEarly) {
  const auto trace = make_trace();
  IngestOptions options;
  options.config = config_for(trace);
  options.max_events = 10;
  const auto result = ingest_text(swf_text(trace), options);
  EXPECT_EQ(result.events, 10u);
}

TEST(Ingest, RowAcrossReadBoundaryIsIngestedOnce) {
  // run_ingest reads 64 KiB chunks. Pad the header with a comment line so
  // the first job row starts 10 bytes before the first chunk boundary:
  // its head arrives in one chunk and its tail in the next.
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  const auto trace = make_trace(500, 17);
  const std::string text = swf_text(trace);
  std::size_t first_row = 0;
  while (text[first_row] == ';') first_row = text.find('\n', first_row) + 1;
  const std::size_t pad = kChunk - 10 - first_row - 2;
  const std::string padded = text.substr(0, first_row) + ";" +
                             std::string(pad, ' ') + "\n" +
                             text.substr(first_row);
  ASSERT_GT(padded.size(), kChunk);
  ASSERT_LT(padded.rfind('\n', kChunk - 1), kChunk - 10);
  ASSERT_GT(padded.find('\n', kChunk - 10), kChunk);

  IngestOptions options;
  options.config = config_for(trace);
  const auto result = ingest_text(padded, options);
  EXPECT_EQ(result.events, trace.size());
  EXPECT_EQ(result.bad_rows, 0u);
  EXPECT_EQ(to_json(result.characterizer.snapshot()).dump(),
            to_json(ingest_all(trace, options.config).snapshot()).dump());
}

TEST(Ingest, FinalRowWithoutNewlineIsIngestedAtEof) {
  const auto trace = make_trace(500, 19);
  std::string text = swf_text(trace);
  ASSERT_EQ(text.back(), '\n');
  text.pop_back();

  IngestOptions options;
  options.config = config_for(trace);
  const auto result = ingest_text(text, options);
  EXPECT_EQ(result.events, trace.size());
  EXPECT_EQ(result.bad_rows, 0u);
  EXPECT_EQ(to_json(result.characterizer.snapshot()).dump(),
            to_json(ingest_all(trace, options.config).snapshot()).dump());
}

TEST(Ingest, EndToEndReportRoundTrips) {
  namespace fs = std::filesystem;
  const auto trace = make_trace(1000, 3);
  const fs::path dir =
      fs::temp_directory_path() / "lumos_stream_test";
  fs::create_directories(dir);
  const fs::path swf_path = dir / "trace.swf";
  const fs::path report_path = dir / "report.json";
  trace::write_swf_file(swf_path.string(), trace);

  IngestOptions options;
  options.input_path = swf_path.string();
  options.output_path = report_path.string();
  options.config = config_for(trace);
  options.report_every_events = 100;
  const auto result = run_ingest(options);
  EXPECT_EQ(result.events, trace.size());
  EXPECT_GE(result.reports_written, 1u);

  // The emitted document is valid JSON with the documented schema, and
  // its harness entry carries the deterministic stream.* metrics.
  std::ifstream in(report_path);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const auto doc = obs::Json::parse(buffer.str());
  const auto* meta = doc.find("_meta");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->find("schema_version")->as_int(), kReportSchemaVersion);
  EXPECT_EQ(meta->find("events")->as_int(),
            static_cast<std::int64_t>(trace.size()));
  // Schema 2: the loop's wall time is run metadata, not part of the entry.
  ASSERT_NE(meta->find("wall_seconds"), nullptr);
  EXPECT_GE(meta->find("wall_seconds")->as_double(), 0.0);
  const auto* entry = doc.find("lumos_serve");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->find("wall_seconds"), nullptr);
  const auto* metrics = entry->find("metrics");
  ASSERT_NE(metrics, nullptr);
  const auto* jobs = metrics->find("stream.jobs");
  ASSERT_NE(jobs, nullptr);
  EXPECT_DOUBLE_EQ(jobs->as_double(), static_cast<double>(trace.size()));

  fs::remove_all(dir);
}

TEST(Ingest, ReportDocumentIsDeterministicInState) {
  const auto trace = make_trace(500, 9);
  const std::string text = swf_text(trace);
  IngestOptions options;
  options.config = config_for(trace);
  auto r1 = ingest_text(text, options);
  auto r2 = ingest_text(text, options);
  // Gauges (rates, RSS) vary run to run; the metrics section must not.
  const auto d1 = make_report_document(r1, "test");
  const auto d2 = make_report_document(r2, "test");
  const auto* m1 = d1.find("lumos_serve")->find("metrics");
  const auto* m2 = d2.find("lumos_serve")->find("metrics");
  ASSERT_NE(m1, nullptr);
  ASSERT_NE(m2, nullptr);
  EXPECT_EQ(*m1, *m2);
}

// ---- state snapshots (crash-consistent serve mode, DESIGN.md §4g) --------

TEST(Snapshot, RestoredCharacterizerIsBitIdentical) {
  // Stop at an arbitrary point, snapshot, restore, continue: the restored
  // instance must land in the exact state of one that never stopped —
  // including sketch rng — which is what makes kill-and-resume reports
  // identical. The JSON encoding of the full state is the equality probe.
  const auto trace = make_trace(3000, 31);
  const auto config = config_for(trace);
  const auto& jobs = trace.jobs();
  const std::size_t split = jobs.size() / 3;
  OnlineCharacterizer uninterrupted(config);
  OnlineCharacterizer stopped(config);
  for (std::size_t i = 0; i < split; ++i) {
    uninterrupted.ingest(jobs[i]);
    stopped.ingest(jobs[i]);
  }
  OnlineCharacterizer resumed = OnlineCharacterizer::restore(
      characterizer_from_json(to_json(stopped.snapshot())));
  for (std::size_t i = split; i < jobs.size(); ++i) {
    uninterrupted.ingest(jobs[i]);
    resumed.ingest(jobs[i]);
  }
  EXPECT_EQ(to_json(resumed.snapshot()).dump(),
            to_json(uninterrupted.snapshot()).dump());
}

TEST(Snapshot, RoundTripAcrossWindowStates) {
  // Windows not yet started (no jobs), mid-window, and after many
  // completed windows: every window bookkeeping state must survive.
  const auto trace = make_trace(2000, 32);
  auto config = config_for(trace);
  config.window_seconds = 3600.0;  // many completed windows in the trace
  OnlineCharacterizer chr(config);
  const auto probe = [&] {
    const auto snap = chr.snapshot();
    const auto restored = OnlineCharacterizer::restore(snap);
    EXPECT_EQ(to_json(restored.snapshot()).dump(), to_json(snap).dump());
  };
  probe();  // empty, window not started
  for (std::size_t i = 0; i < trace.jobs().size(); ++i) {
    chr.ingest(trace.jobs()[i]);
    if (i == 0 || i == trace.jobs().size() / 2) probe();
  }
  probe();  // after completed windows
  EXPECT_GT(chr.windows_completed(), 1u);
}

TEST(Snapshot, JsonCodecRoundTripsExactly) {
  const auto trace = make_trace(1500, 33);
  auto chr = ingest_all(trace, config_for(trace));
  const std::string text = to_json(chr.snapshot()).dump();
  const auto decoded = characterizer_from_json(obs::Json::parse(text));
  EXPECT_EQ(to_json(decoded).dump(), text);
}

TEST(Snapshot, CorruptedStateIsRejectedOnRestore) {
  const auto trace = make_trace(800, 34);
  auto chr = ingest_all(trace, config_for(trace));
  auto snapshot = chr.snapshot();
  snapshot.jobs += 1;  // sketch counts no longer match the job count
  EXPECT_THROW(OnlineCharacterizer::restore(snapshot), Error);
}

TEST(Snapshot, MalformedDocumentNamesTheOffendingPath) {
  const auto trace = make_trace(500, 35);
  auto chr = ingest_all(trace, config_for(trace));
  auto doc = to_json(chr.snapshot());
  doc["jobs"] = obs::Json("not-a-number");
  try {
    (void)characterizer_from_json(doc);
    FAIL() << "malformed snapshot decoded";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("jobs"), std::string::npos);
  }
}

// 64-bit FNV-1a of a byte string.
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(Snapshot, CharacterizerStateIsPinned) {
  // The complete characterizer state after a long Philly stream, recorded
  // before the sketch bookkeeping was cached. The stream is long enough
  // to compact every quantile sketch through many levels; midway through
  // the first shard the state goes through the JSON codec and restore,
  // and a second contiguous shard merges in. Any change to sketch
  // compaction, merge or restore that is meant to keep outputs must keep
  // this digest; an intended output change re-records it here.
  synth::GeneratorOptions options;
  options.seed = 2024;
  options.duration_days = 60.0;
  const auto trace = synth::generate_system("Philly", options);
  const auto config = config_for(trace);
  const auto& jobs = trace.jobs();
  ASSERT_GE(jobs.size(), 200000u);

  const std::size_t half = jobs.size() / 2;
  const std::size_t stop = half / 2;
  OnlineCharacterizer first(config);
  for (std::size_t i = 0; i < stop; ++i) first.ingest(jobs[i]);
  first = OnlineCharacterizer::restore(
      characterizer_from_json(to_json(first.snapshot())));
  for (std::size_t i = stop; i < half; ++i) first.ingest(jobs[i]);
  OnlineCharacterizer second(config);
  for (std::size_t i = half; i < jobs.size(); ++i) second.ingest(jobs[i]);
  first.merge(second);

  const auto snap = first.snapshot();
  EXPECT_EQ(snap.jobs, jobs.size());
  EXPECT_GE(snap.runtime_sketch.levels.size(), 8u);
  EXPECT_GE(snap.wait_sketch.levels.size(), 8u);
  EXPECT_GE(snap.interarrival_sketch.levels.size(), 8u);
  EXPECT_EQ(fnv1a(to_json(snap).dump()), 0x32d8400e8fd48389ULL);
}

// A job from a small, skewed user population with many (cores, runtime)
// configurations per user, so tight table caps evict often.
trace::Job eviction_job(util::Rng& rng, double submit) {
  trace::Job job;
  job.submit_time = submit;
  const double u = rng.uniform();
  job.user = static_cast<std::uint32_t>(60.0 * u * u);
  job.cores = 1u << rng.uniform_index(5);
  job.run_time = std::exp(rng.normal(5.0, 1.5));
  job.wait_time = rng.exponential(1.0 / 300.0);
  return job;
}

TEST(Snapshot, EvictionStateIsPinned) {
  // The default caps (512 users x 64 groups) are never reached by the
  // serve workload, so this pins the eviction paths on their own: 16
  // users x 4 groups under a 60-user stream. Midway through the first
  // shard the state goes through the JSON codec and restore; a second
  // contiguous shard then merges in, which evicts users and groups again.
  // Ties on the smallest count go to the first key, so the digest also
  // pins that rule.
  StreamConfig config;
  config.max_tracked_users = 16;
  config.max_groups_per_user = 4;
  util::Rng rng(77);
  OnlineCharacterizer first(config);
  OnlineCharacterizer second(config);
  double t = 0.0;
  for (int i = 0; i < 20000; ++i) {
    t += rng.exponential(1.0 / 30.0);
    first.ingest(eviction_job(rng, t));
    if (i == 9000) {
      first = OnlineCharacterizer::restore(
          characterizer_from_json(to_json(first.snapshot())));
    }
  }
  for (int i = 0; i < 20000; ++i) {
    t += rng.exponential(1.0 / 30.0);
    second.ingest(eviction_job(rng, t));
  }
  first.merge(second);

  const auto snap = first.snapshot();
  EXPECT_EQ(snap.jobs, 40000u);
  EXPECT_EQ(snap.users.size(), 16u);
  EXPECT_GT(snap.untracked_jobs, 1000u);
  std::uint64_t overflow = 0;
  for (const auto& user : snap.users) {
    EXPECT_LE(user.groups.size(), 4u);
    overflow += user.overflow;
  }
  EXPECT_GT(overflow, 1000u);
  EXPECT_EQ(fnv1a(to_json(snap).dump()), 0xa661f2c49c11971cULL);
}

// A characterizer with dozens of users, several groups per user, and
// hundreds of histogram buckets, for the restore-boundary tests below.
OnlineCharacterizer::Snapshot table_snapshot() {
  util::Rng rng(78);
  OnlineCharacterizer chr;
  double t = 0.0;
  for (int i = 0; i < 3000; ++i) {
    t += rng.exponential(1.0 / 30.0);
    chr.ingest(eviction_job(rng, t));
  }
  return chr.snapshot();
}

TEST(Snapshot, DuplicateTableKeysAreRejectedOnRestore) {
  const auto snap = table_snapshot();
  ASSERT_GE(snap.users.size(), 2u);
  ASSERT_GE(snap.users[0].groups.size(), 2u);
  ASSERT_GE(snap.runtime_histogram.buckets.size(), 2u);

  auto duplicate_user = snap;
  duplicate_user.users[1].id = duplicate_user.users[0].id;
  EXPECT_THROW((void)OnlineCharacterizer::restore(duplicate_user),
               InvalidArgument);

  auto duplicate_group = snap;
  auto& groups = duplicate_group.users[0].groups;
  groups[1].first = groups[0].first;
  EXPECT_THROW((void)OnlineCharacterizer::restore(duplicate_group),
               InvalidArgument);

  auto duplicate_bucket = snap;
  auto& buckets = duplicate_bucket.runtime_histogram.buckets;
  buckets[1].first = buckets[0].first;
  EXPECT_THROW((void)OnlineCharacterizer::restore(duplicate_bucket),
               InvalidArgument);
}

TEST(Snapshot, ShuffledTablesRestoreToTheSortedState) {
  // A snapshot lists users, groups and buckets in key order, but restore
  // must not depend on it: a shuffled snapshot restores to the same
  // state as the sorted original.
  const auto snap = table_snapshot();
  auto shuffled = snap;
  util::Rng rng(79);
  rng.shuffle(shuffled.users);
  for (auto& user : shuffled.users) rng.shuffle(user.groups);
  rng.shuffle(shuffled.runtime_histogram.buckets);
  const std::string sorted_json = to_json(snap).dump();
  ASSERT_NE(to_json(shuffled).dump(), sorted_json);

  const auto restored = OnlineCharacterizer::restore(shuffled);
  EXPECT_EQ(to_json(restored.snapshot()).dump(), sorted_json);
}

// ---- checkpoints ---------------------------------------------------------

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("lumos_ckpt_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  static Checkpoint make_checkpoint(std::uint64_t events,
                                    std::uint64_t seed = 40) {
    const auto trace = make_trace(events, seed);
    Checkpoint cp;
    OnlineCharacterizer chr(config_for(trace));
    for (std::size_t i = 0; i < events && i < trace.jobs().size(); ++i) {
      chr.ingest(trace.jobs()[i]);
    }
    cp.cursor.input = "test.swf";
    cp.cursor.byte_offset = events * 64;
    cp.cursor.line = events;
    cp.cursor.events = chr.jobs();
    cp.characterizer = chr.snapshot();
    return cp;
  }

  std::filesystem::path dir_;
};

TEST_F(CheckpointTest, SaveThenLoadIsPrimaryAndExact) {
  const Checkpoint cp = make_checkpoint(300);
  save_checkpoint(cp, path("ck.json"));
  const CheckpointLoad load = load_checkpoint(path("ck.json"));
  EXPECT_EQ(load.outcome, CheckpointLoad::Outcome::Primary);
  ASSERT_TRUE(load.checkpoint.has_value());
  EXPECT_EQ(load.checkpoint->cursor.events, cp.cursor.events);
  EXPECT_EQ(load.checkpoint->cursor.byte_offset, cp.cursor.byte_offset);
  EXPECT_EQ(to_json(load.checkpoint->characterizer).dump(),
            to_json(cp.characterizer).dump());
}

TEST_F(CheckpointTest, MissingFileIsNoCheckpoint) {
  const CheckpointLoad load = load_checkpoint(path("absent.json"));
  EXPECT_EQ(load.outcome, CheckpointLoad::Outcome::NoCheckpoint);
  EXPECT_FALSE(load.checkpoint.has_value());
}

TEST_F(CheckpointTest, CorruptPrimaryFallsBackToPrev) {
  // Two saves: the first document rotates to .prev. A torn/corrupted
  // primary must fall back to it — never crash, never silently restart
  // from zero state.
  save_checkpoint(make_checkpoint(100), path("ck.json"));
  save_checkpoint(make_checkpoint(200), path("ck.json"));
  {
    std::ofstream torn(path("ck.json"), std::ios::binary | std::ios::trunc);
    torn << "{\"_meta\": {\"schema_version\": 1, \"kind\": \"lumos_che";
  }
  const CheckpointLoad load = load_checkpoint(path("ck.json"));
  EXPECT_EQ(load.outcome, CheckpointLoad::Outcome::Fallback);
  ASSERT_TRUE(load.checkpoint.has_value());
  EXPECT_EQ(load.checkpoint->cursor.events,
            make_checkpoint(100).cursor.events);
  EXPECT_FALSE(load.detail.empty());
}

TEST_F(CheckpointTest, BothCorruptIsLoudFreshStart) {
  {
    std::ofstream a(path("ck.json"), std::ios::binary);
    a << "not json";
    std::ofstream b(path("ck.json.prev"), std::ios::binary);
    b << "[1, 2,";
  }
  const CheckpointLoad load = load_checkpoint(path("ck.json"));
  EXPECT_EQ(load.outcome, CheckpointLoad::Outcome::CorruptIgnored);
  EXPECT_FALSE(load.checkpoint.has_value());
  EXPECT_FALSE(load.detail.empty());
}

TEST_F(CheckpointTest, WrongSchemaOrKindIsRejected) {
  auto doc = to_json(make_checkpoint(50));
  auto meta = obs::Json::object();
  meta["schema_version"] = obs::Json(std::int64_t{999});
  meta["kind"] = obs::Json("lumos_checkpoint");
  doc["_meta"] = std::move(meta);
  EXPECT_THROW((void)checkpoint_from_json(doc), InvalidArgument);
}

TEST_F(CheckpointTest, FingerprintWindowAndZeroOffset) {
  const std::string file = path("input.swf");
  {
    std::ofstream out(file, std::ios::binary);
    out << std::string(1000, 'a') << std::string(1000, 'b');
  }
  EXPECT_EQ(input_fingerprint(file, 0), 0u);
  const std::uint64_t fp = input_fingerprint(file, 1500);
  EXPECT_NE(fp, 0u);
  EXPECT_EQ(input_fingerprint(file, 1500), fp);  // deterministic
  EXPECT_NE(input_fingerprint(file, 1000), fp);  // offset-sensitive
  EXPECT_THROW((void)input_fingerprint(path("gone"), 10), SourceError);
  // Shorter file than the claimed offset: the cursor cannot describe it.
  EXPECT_THROW((void)input_fingerprint(file, 50000), SourceError);
}

// ---- resilient sources ---------------------------------------------------

TEST_F(CheckpointTest, FileSourceReadsAndSeeks) {
  const std::string file = path("source.txt");
  {
    std::ofstream out(file, std::ios::binary);
    out << "0123456789";
  }
  auto source = open_event_source(file);
  EXPECT_TRUE(source->seekable());
  char buf[4];
  auto r = source->read_some(buf, sizeof(buf));
  EXPECT_EQ(r.status, ReadStatus::Data);
  EXPECT_EQ(std::string(buf, r.bytes), "0123");
  source->seek(8);
  r = source->read_some(buf, sizeof(buf));
  EXPECT_EQ(r.status, ReadStatus::Data);
  EXPECT_EQ(std::string(buf, r.bytes), "89");
  r = source->read_some(buf, sizeof(buf));
  EXPECT_EQ(r.status, ReadStatus::Eof);
}

TEST(Source, MissingFileThrowsSourceError) {
  try {
    (void)open_event_source("/nonexistent/lumos/source.swf");
    FAIL() << "open succeeded on a missing path";
  } catch (const SourceError& e) {
    EXPECT_NE(e.errno_value(), 0);
  }
}

namespace {

/// Fails the first `failures` reads with a transient SourceError, then
/// serves `payload` and EOF. Non-seekable, like a pipe.
class FlakySource : public EventSource {
 public:
  FlakySource(int failures, std::string payload)
      : failures_(failures), payload_(std::move(payload)) {}

  ReadResult read_some(char* data, std::size_t capacity) override {
    if (failures_ > 0) {
      --failures_;
      throw SourceError("flaky: transient read failure", EIO);
    }
    if (pos_ >= payload_.size()) return {ReadStatus::Eof, 0};
    const std::size_t n = std::min(capacity, payload_.size() - pos_);
    std::copy_n(payload_.data() + pos_, n, data);
    pos_ += n;
    return {ReadStatus::Data, n};
  }
  const std::string& describe() const noexcept override { return name_; }

 private:
  int failures_;
  std::string payload_;
  std::size_t pos_ = 0;
  std::string name_ = "flaky";
};

}  // namespace

TEST(Source, RetryScheduleIsDeterministic) {
  std::vector<double> delays;
  RetryPolicy policy;
  policy.max_retries = 5;
  policy.base_delay_s = 0.05;
  policy.max_delay_s = 1.0;
  policy.sleep = [&](double s) { delays.push_back(s); };
  RetryingSource source(std::make_unique<FlakySource>(3, "abc"), policy);
  char buf[8];
  const auto r = source.read_some(buf, sizeof(buf));
  EXPECT_EQ(r.status, ReadStatus::Data);
  EXPECT_EQ(std::string(buf, r.bytes), "abc");
  EXPECT_EQ(source.retries(), 3u);
  // Exactly util::backoff_delay_seconds(0.05, 1.0, i) for i = 1..3 — a
  // deterministic schedule, no jitter.
  ASSERT_EQ(delays.size(), 3u);
  EXPECT_DOUBLE_EQ(delays[0], 0.05);
  EXPECT_DOUBLE_EQ(delays[1], 0.1);
  EXPECT_DOUBLE_EQ(delays[2], 0.2);
}

TEST(Source, RetriesExhaustRethrowTheSourceError) {
  std::vector<double> delays;
  RetryPolicy policy;
  policy.max_retries = 2;
  policy.sleep = [&](double s) { delays.push_back(s); };
  RetryingSource source(std::make_unique<FlakySource>(10, ""), policy);
  char buf[8];
  EXPECT_THROW((void)source.read_some(buf, sizeof(buf)), SourceError);
  EXPECT_EQ(delays.size(), 2u);  // slept before each retry, then gave up
}

// ---- crash consistency end to end (in-library kill-and-resume) -----------

TEST_F(CheckpointTest, ResumeAfterStopMatchesUninterruptedRun) {
  const auto trace = make_trace(1200, 44);
  const std::string swf = path("stream.swf");
  trace::write_swf_file(swf, trace);
  const std::uint64_t total = trace.size();

  IngestOptions base;
  base.input_path = swf;
  base.config = config_for(trace);
  base.report_every_events = 0;
  const IngestResult uninterrupted = run_ingest(base);
  ASSERT_EQ(uninterrupted.events, total);

  // Stop partway (max_events stands in for the kill; the final checkpoint
  // at stop is exactly what a graceful shutdown writes).
  IngestOptions stopped = base;
  stopped.checkpoint_path = path("ck.json");
  stopped.checkpoint_every_events = 100;
  stopped.max_events = total / 2;
  const IngestResult partial = run_ingest(stopped);
  EXPECT_EQ(partial.events, total / 2);
  EXPECT_GE(partial.checkpoints_written, 1u);

  IngestOptions resumed = stopped;
  resumed.max_events = 0;
  const IngestResult rest = run_ingest(resumed);
  EXPECT_EQ(rest.events, total);
  EXPECT_EQ(rest.resumed_events, total / 2);
  EXPECT_EQ(rest.replayed_events, total - total / 2);
  EXPECT_EQ(rest.events, rest.resumed_events + rest.replayed_events);

  // The resumed run's report is indistinguishable from never stopping.
  const obs::Json direct_doc = make_report_document(uninterrupted, "t");
  const obs::Json after_doc = make_report_document(rest, "t");
  const auto* direct = direct_doc.find("lumos_serve");
  const auto* after = after_doc.find("lumos_serve");
  ASSERT_NE(direct, nullptr);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(*direct->find("metrics"), *after->find("metrics"));
}

TEST_F(CheckpointTest, ResumeRefusesRewrittenInput) {
  const auto trace = make_trace(600, 45);
  const std::string swf = path("stream.swf");
  trace::write_swf_file(swf, trace);

  IngestOptions options;
  options.input_path = swf;
  options.config = config_for(trace);
  options.report_every_events = 0;
  options.checkpoint_path = path("ck.json");
  options.max_events = 200;
  (void)run_ingest(options);

  // Replace the input with different content (longer, so the fingerprint
  // window is readable and the mismatch — not a short read — is what
  // trips): the cursor no longer describes this file, and resuming would
  // double-count.
  trace::write_swf_file(swf, make_trace(1200, 46));
  options.max_events = 0;
  EXPECT_THROW((void)run_ingest(options), InvalidArgument);
}

TEST_F(CheckpointTest, NoResumeFlagStartsFresh) {
  const auto trace = make_trace(400, 47);
  const std::string swf = path("stream.swf");
  trace::write_swf_file(swf, trace);
  IngestOptions options;
  options.input_path = swf;
  options.config = config_for(trace);
  options.report_every_events = 0;
  options.checkpoint_path = path("ck.json");
  options.max_events = 150;
  (void)run_ingest(options);

  options.resume = false;
  options.max_events = 0;
  const IngestResult fresh = run_ingest(options);
  EXPECT_EQ(fresh.resumed_events, 0u);
  EXPECT_EQ(fresh.events, trace.size());
}

TEST_F(CheckpointTest, ShutdownFlagStopsLoopGracefully) {
  const auto trace = make_trace(500, 48);
  const std::string swf = path("stream.swf");
  trace::write_swf_file(swf, trace);

  util::install_shutdown_signals();
  util::clear_shutdown_request();
  std::raise(SIGTERM);
  ASSERT_TRUE(util::shutdown_requested());

  IngestOptions options;
  options.input_path = swf;
  options.config = config_for(trace);
  options.report_every_events = 0;
  options.checkpoint_path = path("ck.json");
  const IngestResult result = run_ingest(options);
  util::clear_shutdown_request();

  // The pending flag is honoured before the first read: nothing ingested,
  // the cause is recorded, and a final checkpoint still lands.
  EXPECT_EQ(result.shutdown_signal, SIGTERM);
  EXPECT_EQ(result.events, 0u);
  EXPECT_GE(result.checkpoints_written, 1u);
  EXPECT_EQ(load_checkpoint(path("ck.json")).outcome,
            CheckpointLoad::Outcome::Primary);
}

}  // namespace
}  // namespace lumos::stream
