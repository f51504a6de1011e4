// stream::run_ingest — the long-running "lumos-served" ingest loop.
//
// Tails an SWF event source (a growing file, a FIFO, or stdin), feeds
// every job row into an OnlineCharacterizer, and periodically publishes
// the characterization as a schema-versioned report document written with
// obs::write_json_atomic — so a dashboard (or a test) polling the output
// path always reads either the previous complete report or the new one,
// never a torn file. `tools/lumos_serve` is the CLI wrapper; the serve
// workload of perfbench/ measures its throughput. EXPERIMENTS.md
// ("Streaming ingest walkthrough") shows the end-to-end pipe recipe.
//
// Crash consistency (DESIGN.md §4g): when `checkpoint_path` is set the
// loop persists a checkpoint (stream/checkpoint.hpp) — source cursor +
// complete characterizer snapshot — every `checkpoint_every_events`
// events and on graceful shutdown. On start it restores the newest good
// checkpoint, seeks the source to the cursor, and replays only the gap,
// so a SIGKILL at any instant costs at most one checkpoint interval of
// redone work and the final report is identical to an uninterrupted run
// (`bench/ext_serve_chaos` drills this). Reads go through the
// stream::EventSource seam (source.hpp): EINTR surfaces the shutdown
// flag, FIFO EAGAIN means idle rather than EOF, and transient OS errors
// retry on a deterministic capped-exponential schedule.
//
// Graceful shutdown: with `handle_signals` set, SIGTERM/SIGINT set a flag
// (util/signal_util.hpp, no SA_RESTART) that the loop checks every read;
// it then writes a final checkpoint + report and returns normally with
// `shutdown_signal` recording the cause. The flag is honoured at chunk
// granularity; a caller that needs a hard deadline follows SIGTERM with
// SIGKILL, which the checkpoints survive.
//
// Report document shape (see DESIGN.md "Streaming mode"):
//   {
//     "_meta": { "schema_version": 2, "source": ..., "events": ...,
//                "reports": ..., "bad_rows": ..., "unknown_runtime": ...,
//                "wall_seconds": ... },
//     "lumos_serve": <obs::Report entry — stream.* metrics, plus
//                     robustness counters/gauges in observability:
//                     stream.checkpoints_written, stream.source_retries,
//                     stream.resumed_events, stream.replayed_events,
//                     stream.checkpoint_fallbacks,
//                     stream.last_event_age_s, stream.checkpoint_age_s>
//   }
// The "lumos_serve" value has the shape of a BENCH_results.json harness
// entry, so downstream tooling written against those entries works on
// streaming reports unchanged. The deterministic `metrics` map is
// unchanged by the robustness work — a fault-free run publishes exactly
// the same metrics as before checkpointing existed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "obs/report.hpp"
#include "stream/online.hpp"
#include "stream/source.hpp"

namespace lumos::stream {

/// Version of the emitted report document; bump on breaking changes to
/// the _meta or metric-key layout.
inline constexpr int kReportSchemaVersion = 2;

struct IngestOptions {
  /// SWF source path; "-" reads stdin.
  std::string input_path = "-";
  /// Report destination; "-" writes stdout, "" disables report emission
  /// (bench mode: the caller publishes from the returned characterizer).
  std::string output_path;
  /// Characterizer knobs (epoch/offset for the diurnal profile etc).
  StreamConfig config;
  /// Emit a report every N ingested job events (0 = only the final one).
  std::uint64_t report_every_events = 10000;
  /// Keep polling for more data after EOF (tail -f). Only meaningful for
  /// regular files; pipes/stdin block in read instead. The loop stops
  /// after `idle_timeout_s` without new data.
  bool follow = false;
  double poll_interval_s = 0.25;
  double idle_timeout_s = 5.0;
  /// Stop after this many job events (0 = unlimited). Lets tests and
  /// benches bound a run over an endless source. Counts cumulatively on
  /// resume: a run restored at event 800 with max_events 1000 ingests 200.
  std::uint64_t max_events = 0;
  /// Malformed rows tolerated before the loop throws ParseError — live
  /// feeds default lenient, unlike the strict batch reader.
  std::uint64_t bad_row_budget = 1000;

  // ---- crash consistency (see the header comment) ----
  /// Checkpoint document path; "" disables checkpointing.
  std::string checkpoint_path;
  /// Persist a checkpoint every N events (0 = only on graceful shutdown
  /// and at end of stream). Only meaningful with checkpoint_path.
  std::uint64_t checkpoint_every_events = 0;
  /// Restore from an existing checkpoint on start. Resume seeks seekable
  /// sources to the cursor; non-seekable sources (stdin, FIFO) restore
  /// state only and continue from the live position (logged).
  bool resume = true;
  /// Install SIGTERM/SIGINT handlers and stop cleanly (final checkpoint
  /// + report) when one arrives. Off by default so library callers and
  /// tests never have process-wide handlers installed behind their back.
  bool handle_signals = false;
  /// Transient-source-error retry schedule (stream.source_retries counts).
  RetryPolicy retry;
  /// Warn (once per stall) when no event arrived for this many seconds
  /// while the loop is live; 0 disables. The corresponding gauge is
  /// stream.last_event_age_s.
  double stall_warn_s = 0.0;
};

struct IngestResult {
  std::uint64_t events = 0;          ///< job rows ingested (cumulative)
  std::uint64_t bad_rows = 0;        ///< malformed rows skipped
  std::uint64_t unknown_runtime = 0; ///< rows dropped (negative runtime)
  std::uint64_t reports_written = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  /// Final characterizer state (also what the last report published).
  OnlineCharacterizer characterizer;

  // ---- robustness accounting ----
  /// Events carried in from the restored checkpoint (0 on a fresh start).
  std::uint64_t resumed_events = 0;
  /// Events actually ingested by this process — the replay window plus
  /// new data. events == resumed_events + replayed_events always holds.
  std::uint64_t replayed_events = 0;
  std::uint64_t checkpoints_written = 0;
  /// 1 when the restore came from the `.prev` fallback document.
  std::uint64_t checkpoint_fallbacks = 0;
  /// Transient source-read errors retried away (RetryingSource).
  std::uint64_t source_retries = 0;
  /// Signal that ended the loop (0 = ran to completion).
  int shutdown_signal = 0;
  /// Watchdog ages at the moment the result was finalized (gauges).
  double last_event_age_s = 0.0;
  double checkpoint_age_s = 0.0;
};

/// Runs the ingest loop over an already-open stream (no follow mode —
/// reads to EOF or max_events). The deterministic core of run_ingest;
/// tests drive this overload directly. Checkpoint *writing* works here
/// (cadence tests); resume/seek needs run_ingest over a real file.
[[nodiscard]] IngestResult ingest_stream(std::istream& in,
                                         const IngestOptions& options);

/// Opens `options.input_path` (file, FIFO, or "-") through the
/// EventSource seam and runs the loop, honoring follow mode, checkpoints,
/// and graceful shutdown. Throws SourceError when the source cannot be
/// opened (after retries), ParseError when the bad-row budget is
/// exhausted, and InvalidArgument when a checkpoint cursor does not match
/// the input (fingerprint mismatch — see stream/checkpoint.hpp).
[[nodiscard]] IngestResult run_ingest(const IngestOptions& options);

/// Builds the schema-versioned report document for a characterizer state
/// (the document run_ingest writes). Exposed so the bench can emit the
/// identical shape without a filesystem round-trip.
[[nodiscard]] obs::Json make_report_document(const IngestResult& result,
                                             const std::string& source);

/// Peak resident set size of this process in MiB (getrusage; 0.0 where
/// unsupported). Published as the stream.peak_rss_mb gauge.
[[nodiscard]] double peak_rss_mb() noexcept;

}  // namespace lumos::stream
