#include "stream/ingest.hpp"

#include <chrono>
#include <istream>
#include <memory>
#include <string_view>
#include <thread>
#include <utility>

#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "stream/checkpoint.hpp"
#include "stream/snapshot.hpp"
#include "trace/parse.hpp"
#include "trace/swf.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"
#include "util/signal_util.hpp"
#include "util/string_util.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace lumos::stream {

double peak_rss_mb() noexcept {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
#endif
#else
  return 0.0;
#endif
}

obs::Json make_report_document(const IngestResult& result,
                               const std::string& source) {
  obs::Report report;
  report.harness = "lumos_serve";
  report.figure = "streaming characterization (DESIGN.md Streaming mode)";
  result.characterizer.publish(report, "stream.");

  obs::Registry registry;
  registry.counter("stream.events").add(result.events);
  registry.counter("stream.bad_rows").add(result.bad_rows);
  registry.counter("stream.unknown_runtime").add(result.unknown_runtime);
  registry.counter("stream.reports_written").add(result.reports_written);
  registry.counter("stream.checkpoints_written")
      .add(result.checkpoints_written);
  registry.counter("stream.checkpoint_fallbacks")
      .add(result.checkpoint_fallbacks);
  registry.counter("stream.resumed_events").add(result.resumed_events);
  registry.counter("stream.replayed_events").add(result.replayed_events);
  registry.counter("stream.source_retries").add(result.source_retries);
  registry.gauge("stream.events_per_sec").set(result.events_per_sec);
  registry.gauge("stream.peak_rss_mb").set(peak_rss_mb());
  registry.gauge("stream.retained_items")
      .set(static_cast<double>(result.characterizer.retained_items()));
  registry.gauge("stream.last_event_age_s").set(result.last_event_age_s);
  registry.gauge("stream.checkpoint_age_s").set(result.checkpoint_age_s);
  report.observability = registry.snapshot();

  obs::Json doc = obs::Json::object();
  obs::Json meta = obs::Json::object();
  meta["schema_version"] = obs::Json(kReportSchemaVersion);
  meta["source"] = obs::Json(source);
  meta["events"] = obs::Json(result.events);
  meta["reports"] = obs::Json(result.reports_written);
  meta["bad_rows"] = obs::Json(result.bad_rows);
  meta["unknown_runtime"] = obs::Json(result.unknown_runtime);
  meta["wall_seconds"] = obs::Json(result.wall_seconds);
  doc["_meta"] = std::move(meta);
  doc["lumos_serve"] = report.to_json();
  return doc;
}

namespace {

using Clock = std::chrono::steady_clock;

/// Shared per-line ingest state: counters, cadence, report + checkpoint
/// emission, the source cursor, and the watchdog clocks.
class Ingestor {
 public:
  Ingestor(const IngestOptions& options, CheckpointLoad restored)
      : options_(options), start_(Clock::now()) {
    parse_opts_.origin =
        options_.input_path == "-" ? "stdin" : options_.input_path;
    if (restored.checkpoint) {
      const Checkpoint& cp = *restored.checkpoint;
      result_.characterizer = OnlineCharacterizer::restore(cp.characterizer);
      result_.events = cp.cursor.events;
      result_.bad_rows = cp.cursor.bad_rows;
      result_.unknown_runtime = cp.cursor.unknown_runtime;
      result_.resumed_events = cp.cursor.events;
      result_.checkpoint_fallbacks =
          restored.outcome == CheckpointLoad::Outcome::Fallback ? 1 : 0;
      lineno_ = cp.cursor.line;
      consumed_bytes_ = cp.cursor.byte_offset;
      LUMOS_INFO << "resumed from checkpoint: " << cp.cursor.events
                 << " events, byte " << cp.cursor.byte_offset
                 << (result_.checkpoint_fallbacks != 0 ? " (fallback)" : "");
    } else {
      result_.characterizer = OnlineCharacterizer(options.config);
    }
    last_event_ = start_;
    last_checkpoint_ = start_;
  }

  /// Feeds one raw line (without its terminator); `terminated` adds the
  /// newline byte to the cursor. Returns false once max_events is reached.
  bool feed(std::string_view line, bool terminated = true) {
    ++lineno_;
    consumed_bytes_ += line.size() + (terminated ? 1 : 0);
    const auto trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == ';') return true;
    LUMOS_FAILPOINT("stream.ingest.row");
    try {
      const trace::SwfRow row = trace::parse_swf_row(
          trimmed, trace::ResourceKind::Cpu, parse_opts_, lineno_);
      if (row.unknown_runtime) {
        ++result_.unknown_runtime;
        return true;
      }
      result_.characterizer.ingest(row.job);
      ++result_.events;
      ++result_.replayed_events;
      unstamped_events_ = true;
      stall_warned_ = false;
    } catch (const ParseError&) {
      if (result_.bad_rows >= options_.bad_row_budget) throw;
      ++result_.bad_rows;
      return true;
    }
    if (options_.report_every_events > 0 &&
        result_.events % options_.report_every_events == 0) {
      emit_report();
    }
    if (!options_.checkpoint_path.empty() &&
        options_.checkpoint_every_events > 0 &&
        result_.events % options_.checkpoint_every_events == 0) {
      emit_checkpoint();
    }
    return options_.max_events == 0 || result_.events < options_.max_events;
  }

  /// Sets the last-event clock to now when events arrived since the last
  /// stamp. feed() does not read the clock; the two readers of
  /// last_event_ (on_idle and refresh_timing) stamp first instead. The
  /// clock is then read at most once per idle poll or report, and a stamp
  /// lags the true last event only by the time spent on the lines fed
  /// after it.
  void stamp_events() {
    if (!unstamped_events_) return;
    last_event_ = Clock::now();
    unstamped_events_ = false;
  }

  /// Watchdog hook, called from the poll path: warns once per stall when
  /// no event arrived for stall_warn_s.
  void on_idle() {
    stamp_events();
    if (options_.stall_warn_s <= 0.0 || stall_warned_) return;
    if (age_seconds(last_event_) >= options_.stall_warn_s) {
      stall_warned_ = true;
      LUMOS_WARN << "stream source '" << parse_opts_.origin
                 << "' stalled: no event for "
                 << age_seconds(last_event_) << "s";
    }
  }

  void note_shutdown(int signal) { result_.shutdown_signal = signal; }
  void note_retries(std::uint64_t retries) {
    result_.source_retries = retries;
  }

  /// Final checkpoint + report + throughput accounting.
  IngestResult finish() {
    refresh_timing();
    if (!options_.checkpoint_path.empty()) emit_checkpoint();
    if (!options_.output_path.empty()) emit_report();
    return std::move(result_);
  }

 private:
  [[nodiscard]] double age_seconds(Clock::time_point since) const {
    return std::chrono::duration<double>(Clock::now() - since).count();
  }

  void refresh_timing() {
    stamp_events();
    const std::chrono::duration<double> elapsed = Clock::now() - start_;
    result_.wall_seconds = elapsed.count();
    result_.events_per_sec =
        result_.wall_seconds > 0.0
            ? static_cast<double>(result_.events) / result_.wall_seconds
            : 0.0;
    result_.last_event_age_s = age_seconds(last_event_);
    result_.checkpoint_age_s = age_seconds(last_checkpoint_);
  }

  void emit_report() {
    if (options_.output_path.empty()) return;
    refresh_timing();
    obs::write_json_atomic(
        make_report_document(result_, parse_opts_.origin),
        options_.output_path);
    ++result_.reports_written;
  }

  void emit_checkpoint() {
    Checkpoint cp;
    cp.cursor.input = options_.input_path;
    cp.cursor.byte_offset = consumed_bytes_;
    cp.cursor.line = lineno_;
    cp.cursor.events = result_.events;
    cp.cursor.bad_rows = result_.bad_rows;
    cp.cursor.unknown_runtime = result_.unknown_runtime;
    cp.cursor.fingerprint =
        fingerprintable_ ? input_fingerprint(options_.input_path,
                                             consumed_bytes_)
                         : 0;
    cp.characterizer = result_.characterizer.snapshot();
    save_checkpoint(cp, options_.checkpoint_path);
    ++result_.checkpoints_written;
    last_checkpoint_ = Clock::now();
  }

  const IngestOptions& options_;
  trace::ParseOptions parse_opts_;
  IngestResult result_;
  std::size_t lineno_ = 0;
  std::uint64_t consumed_bytes_ = 0;
  Clock::time_point start_;
  Clock::time_point last_event_;
  Clock::time_point last_checkpoint_;
  bool unstamped_events_ = false;
  bool stall_warned_ = false;

 public:
  /// Whether checkpoints may fingerprint input_path (regular file only).
  bool fingerprintable_ = false;
};

}  // namespace

IngestResult ingest_stream(std::istream& in, const IngestOptions& options) {
  Ingestor ingestor(options, CheckpointLoad{});
  std::string line;
  while (std::getline(in, line)) {
    if (!ingestor.feed(line)) break;
  }
  return ingestor.finish();
}

IngestResult run_ingest(const IngestOptions& options) {
  if (options.handle_signals) util::install_shutdown_signals();

  RetryingSource source(open_event_source(options.input_path),
                        options.retry);

  // Restore the newest good checkpoint and position the source.
  CheckpointLoad restored;
  if (!options.checkpoint_path.empty() && options.resume) {
    restored = load_checkpoint(options.checkpoint_path);
    if (restored.checkpoint) {
      const SourceCursor& cursor = restored.checkpoint->cursor;
      if (source.seekable()) {
        const std::uint64_t fp =
            input_fingerprint(options.input_path, cursor.byte_offset);
        if (fp != cursor.fingerprint) {
          throw InvalidArgument(
              "checkpoint: input fingerprint mismatch for '" +
              options.input_path +
              "' — the input is not the file the checkpoint describes; "
              "remove the checkpoint to start fresh");
        }
        source.seek(cursor.byte_offset);
      } else {
        LUMOS_WARN << "checkpoint: source '" << source.describe()
                   << "' is not seekable; restoring state and continuing "
                      "from the live position (no replay)";
      }
    }
  }

  Ingestor ingestor(options, std::move(restored));
  ingestor.fingerprintable_ = source.seekable();

  std::string carry;
  std::string chunk(1 << 16, '\0');
  double idle_s = 0.0;
  bool stop = false;
  bool eof = false;
  while (!stop && !eof) {
    if (util::shutdown_requested()) {
      ingestor.note_shutdown(util::shutdown_signal());
      break;
    }
    const ReadResult read = source.read_some(chunk.data(), chunk.size());
    switch (read.status) {
      case ReadStatus::Data: {
        idle_s = 0.0;
        carry.append(chunk.data(), read.bytes);
        std::size_t begin = 0;
        for (std::size_t nl = carry.find('\n', begin);
             nl != std::string::npos && !stop;
             nl = carry.find('\n', begin)) {
          stop = !ingestor.feed(
              std::string_view(carry).substr(begin, nl - begin));
          begin = nl + 1;
        }
        carry.erase(0, begin);
        break;
      }
      case ReadStatus::Eof:
        // Regular file at end: in follow mode poll for growth, otherwise
        // the stream is complete.
        if (!options.follow || !source.seekable()) {
          eof = true;
          break;
        }
        [[fallthrough]];
      case ReadStatus::Idle:
        if (idle_s >= options.idle_timeout_s) {
          eof = true;
          break;
        }
        ingestor.on_idle();
        std::this_thread::sleep_for(
            std::chrono::duration<double>(options.poll_interval_s));
        idle_s += options.poll_interval_s;
        break;
      case ReadStatus::Interrupted:
        // A signal arrived mid-read; loop around so the shutdown flag
        // check runs before the next read.
        break;
    }
  }
  // A trailing unterminated line is data only once the stream truly
  // ended; a shutdown leaves it for the resumed run (the cursor does not
  // cover it).
  if (!stop && eof && !carry.empty()) {
    ingestor.feed(carry, /*terminated=*/false);
  }
  ingestor.note_retries(source.retries());
  return ingestor.finish();
}

}  // namespace lumos::stream
