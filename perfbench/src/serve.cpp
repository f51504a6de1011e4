// Workload `serve`: lumos_serve catching up a backlog — one Philly SWF
// file of about 1M rows, all present at t=0.
//
// run():    stream::run_ingest with the daemon's default report cadence
//           and a checkpoint every 100 000 events, into a fresh directory.
// traced(): the run_ingest loop replayed from outside through the public
//           stream/trace functions it calls (open_event_source, read_some,
//           parse_swf_row, OnlineCharacterizer::ingest, snapshot,
//           input_fingerprint, save_checkpoint, make_report_document +
//           write_json_atomic), with per-row calls timed per 64 KiB chunk,
//           then the restart cost (load_checkpoint + restore).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/report.hpp"
#include "stream/checkpoint.hpp"
#include "stream/ingest.hpp"
#include "synth/generator.hpp"
#include "trace/swf.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace stream = lumos::stream;
namespace trace = lumos::trace;

constexpr double kBacklogDays = 290.0;
constexpr std::uint64_t kCheckpointEvery = 100000;
/// Marks a row the replay could not parse (SWF job numbers are >= 1, so
/// a parsed row never carries this id).
constexpr std::uint64_t kBadRow = ~std::uint64_t{0};

/// Digest of the deterministic report metrics of a characterizer.
std::string characterizer_digest(const stream::OnlineCharacterizer& c) {
  lumos::obs::Report report;
  c.publish(report, "stream.");
  Digest d;
  for (const auto& [key, value] : report.metrics) {
    d.str(key);
    d.f64(value);
  }
  return d.hex();
}

/// Normalized rank error of `value` as the q-quantile of `sorted`: 0 when
/// q lies inside the value's rank interval (ties make the ECDF jump).
double rank_error(const std::vector<double>& sorted, double value, double q) {
  const double n = static_cast<double>(sorted.size());
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), value);
  const auto hi = std::upper_bound(sorted.begin(), sorted.end(), value);
  const double f_below = static_cast<double>(lo - sorted.begin()) / n;
  const double f_at = static_cast<double>(hi - sorted.begin()) / n;
  if (q >= f_below && q <= f_at) return 0.0;
  return q < f_below ? f_below - q : q - f_at;
}

double max_rank_error(const lumos::stats::QuantileSketch& sketch,
                      std::vector<double> sample) {
  std::sort(sample.begin(), sample.end());
  double worst = 0.0;
  for (int i = 0; i <= 1000; ++i) {
    const double q = static_cast<double>(i) / 1000.0;
    worst = std::max(worst, rank_error(sample, sketch.quantile(q), q));
  }
  return worst;
}

void write_doubles(const fs::path& path, const std::vector<double>& v) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(double)));
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

std::vector<double> read_doubles(const fs::path& path) {
  std::vector<double> v(fs::file_size(path) / sizeof(double));
  std::ifstream in(path, std::ios::binary);
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(v.size() * sizeof(double)));
  if (!in) throw std::runtime_error("cannot read " + path.string());
  return v;
}

class Serve final : public Workload {
 public:
  explicit Serve(const Context& ctx)
      : ctx_(ctx), input_(ctx.workdir / "philly.swf") {}

  void setup(Tracer* tracer) override {
    trace::Trace philly;
    {
      Tracer::Scope s(tracer, "synth.generate");
      lumos::synth::GeneratorOptions gen;
      gen.seed = ctx_.seed;
      gen.duration_days = kBacklogDays;
      philly = lumos::synth::generate_system("Philly", gen);
    }
    {
      Tracer::Scope s(tracer, "setup.write_swf");
      input_bytes_ = emit_swf(input_, philly);
    }
    emitted_rows_ = philly.size();
    config_.epoch_unix = philly.spec().epoch_unix;
    config_.utc_offset_hours = philly.spec().utc_offset_hours;
    // The exact samples the sketches are checked against, kept on disk
    // so they do not count towards the run phase's memory.
    std::vector<double> runtimes;
    std::vector<double> waits;
    std::vector<double> gaps;
    double last = 0.0;
    for (std::size_t i = 0; i < philly.size(); ++i) {
      const auto& j = philly.jobs()[i];
      runtimes.push_back(j.run_time);
      waits.push_back(j.wait_time);
      // OnlineCharacterizer's gap: to the latest submit seen so far.
      if (i > 0) gaps.push_back(std::max(0.0, j.submit_time - last));
      last = i > 0 ? std::max(last, j.submit_time) : j.submit_time;
    }
    write_doubles(ctx_.workdir / "runtimes.bin", runtimes);
    write_doubles(ctx_.workdir / "waits.bin", waits);
    write_doubles(ctx_.workdir / "gaps.bin", gaps);
  }

  [[nodiscard]] std::uint64_t input_seed() const override {
    return ctx_.seed;
  }

  Rep run() override {
    const fs::path dir = fresh_dir();
    stream::IngestOptions options = ingest_options(dir);
    const Stopwatch watch;
    stream::IngestResult result = stream::run_ingest(options);
    Rep rep;
    rep.wall_s = watch.wall_s();
    rep.cpu_s = watch.cpu_s();
    rep.jobs = static_cast<double>(result.events);
    rep.events = rep.jobs;
    rep.failed_units = result.bad_rows + result.unknown_runtime;
    rep.units = result.events + rep.failed_units;
    rep.digest = characterizer_digest(result.characterizer);
    fs::remove_all(dir);
    last_ = std::make_unique<stream::IngestResult>(std::move(result));
    return rep;
  }

  void verify(Checks& checks,
              std::map<std::string, std::string>& /*digests*/) override {
    const auto& r = *last_;
    checks.record(r.events == emitted_rows_ && r.bad_rows == 0 &&
                      r.unknown_runtime == 0,
                  "serve: ingested " + std::to_string(r.events) + " of " +
                      std::to_string(emitted_rows_) + " emitted rows (" +
                      std::to_string(r.bad_rows) + " bad, " +
                      std::to_string(r.unknown_runtime) + " dropped)");
    const std::uint64_t reports = r.events / 10000 + 1;
    const std::uint64_t checkpoints = r.events / kCheckpointEvery + 1;
    checks.record(r.reports_written == reports &&
                      r.checkpoints_written == checkpoints,
                  "serve: wrote " + std::to_string(r.reports_written) +
                      " reports and " + std::to_string(r.checkpoints_written) +
                      " checkpoints, cadence gives " +
                      std::to_string(reports) + " and " +
                      std::to_string(checkpoints));
    const auto& c = r.characterizer;
    const double eps = c.runtime_sketch().epsilon();
    const std::pair<const char*, double> errors[] = {
        {"runtime", max_rank_error(c.runtime_sketch(),
                                   read_doubles(ctx_.workdir / "runtimes.bin"))},
        {"wait", max_rank_error(c.wait_sketch(),
                                read_doubles(ctx_.workdir / "waits.bin"))},
        {"interarrival",
         max_rank_error(c.interarrival_sketch(),
                        read_doubles(ctx_.workdir / "gaps.bin"))},
    };
    for (const auto& [name, err] : errors) {
      checks.record(err <= eps, std::string("serve: ") + name +
                                    " sketch rank error " +
                                    std::to_string(err) + " > bound " +
                                    std::to_string(eps));
    }
  }

  TracedWall traced(Tracer& tracer, double untraced_median_s, Checks& checks,
                    Layers& layers) override {
    const fs::path dir = fresh_dir();
    const stream::IngestOptions options = ingest_options(dir);
    const auto start = Clock::now();
    const int run = tracer.begin("serve.run");
    Replay replay(tracer, options);
    replay.run(input_bytes_);
    tracer.end(run);
    const double traced_wall = seconds_since(start);
    const auto& result = replay.result();
    const std::string digest = characterizer_digest(result.characterizer);
    checks.record(digest == characterizer_digest(last_->characterizer),
                  "serve: traced replay diverged from run_ingest");

    // Restart cost: what a restarted daemon pays before ingesting again.
    const int restart = tracer.begin("serve.restart");
    {
      Tracer::Scope s(&tracer, "stream.checkpoint_load");
      const auto loaded = stream::load_checkpoint(options.checkpoint_path);
      const auto restored =
          stream::OnlineCharacterizer::restore(loaded.checkpoint->characterizer);
      checks.record(characterizer_digest(restored) == digest,
                    "serve: restored checkpoint differs from final state");
    }
    tracer.end(restart);

    const auto totals = tracer.layers(run);
    const auto self = [&](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second.self_s;
    };
    const auto calls = [&](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0
                                : static_cast<double>(it->second.calls);
    };
    const double read_s =
        self("stream.open_event_source") + self("stream.read_some");
    layers["stream.source_read_s"] = read_s;
    layers["stream.source_mb_per_s"] =
        static_cast<double>(input_bytes_) / 1e6 / read_s;
    layers["trace.parse_swf_row_ns"] =
        self("trace.parse_swf_row") * 1e9 / calls("trace.parse_swf_row");
    layers["stream.ingest_ns"] =
        self("stream.ingest") * 1e9 / calls("stream.ingest");
    layers["stream.snapshot_s"] = self("stream.snapshot");
    layers["stream.checkpoint_save_s"] = self("stream.checkpoint_save");
    layers["stream.fingerprint_s"] = self("stream.fingerprint");
    layers["stream.report_s"] = self("stream.report");
    layers["stream.checkpoints"] = calls("stream.checkpoint_save");
    layers["stream.reports"] = calls("stream.report");
    layers["stream.checkpoint_bytes"] =
        static_cast<double>(fs::file_size(options.checkpoint_path));
    layers["stream.checkpoint_load_s"] =
        tracer.layers(restart).at("stream.checkpoint_load").self_s;
    layers["stream.retained_items"] =
        static_cast<double>(result.characterizer.retained_items());
    double layer_self = read_s;
    for (const char* name :
         {"trace.parse_swf_row", "stream.ingest", "stream.snapshot",
          "stream.checkpoint_save", "stream.fingerprint", "stream.report"}) {
      layer_self += self(name);
    }
    layers["stream.loop_residual_s"] = untraced_median_s - layer_self;
    fs::remove_all(dir);
    return {traced_wall, untraced_median_s};
  }

 private:
  /// The run_ingest loop (src/stream/ingest.cpp) rebuilt from the public
  /// functions it calls, with spans around each call.
  class Replay {
   public:
    Replay(Tracer& tracer, const stream::IngestOptions& options)
        : tracer_(tracer), options_(options) {
      result_.characterizer = stream::OnlineCharacterizer(options.config);
      parse_opts_.origin = options.input_path;
    }

    void run(std::uint64_t expected_bytes) {
      std::unique_ptr<stream::EventSource> source;
      {
        Tracer::Scope s(&tracer_, "stream.open_event_source");
        source = std::make_unique<stream::RetryingSource>(
            stream::open_event_source(options_.input_path), options_.retry);
      }
      // run_ingest probes for a checkpoint to resume from (none here).
      (void)stream::load_checkpoint(options_.checkpoint_path);
      const auto start = Clock::now();
      std::string carry;
      std::string chunk(1 << 16, '\0');
      std::vector<Line> lines;
      std::vector<trace::SwfRow> rows;
      std::uint64_t bytes = 0;
      for (;;) {
        stream::ReadResult read;
        {
          Tracer::Scope s(&tracer_, "stream.read_some");
          read = source->read_some(chunk.data(), chunk.size());
        }
        if (read.status == stream::ReadStatus::Eof) break;
        if (read.status != stream::ReadStatus::Data) continue;
        bytes += read.bytes;
        carry.append(chunk.data(), read.bytes);
        lines.clear();
        std::size_t begin = 0;
        for (std::size_t nl = carry.find('\n'); nl != std::string::npos;
             nl = carry.find('\n', begin)) {
          ++lineno_;
          consumed_ += nl - begin + 1;
          const auto trimmed =
              lumos::util::trim(std::string_view(carry).substr(begin, nl - begin));
          begin = nl + 1;
          if (trimmed.empty() || trimmed.front() == ';') continue;
          lines.push_back({trimmed, lineno_, consumed_});
        }
        rows.clear();
        {
          Tracer::Scope s(&tracer_, "trace.parse_swf_row", lines.size());
          for (const Line& line : lines) {
            try {
              rows.push_back(trace::parse_swf_row(
                  line.text, trace::ResourceKind::Cpu, parse_opts_,
                  line.lineno));
            } catch (const lumos::ParseError&) {
              // run_ingest skips a bad row within its budget (never
              // reached on emitted input; verify() checks bad_rows == 0).
              ++result_.bad_rows;
              rows.emplace_back();
              rows.back().job.id = kBadRow;
            }
          }
        }
        {
          Tracer::Scope s(&tracer_, "stream.ingest", rows.size());
          for (std::size_t i = 0; i < rows.size(); ++i) {
            if (rows[i].job.id == kBadRow) continue;
            if (rows[i].unknown_runtime) {
              ++result_.unknown_runtime;
              continue;
            }
            result_.characterizer.ingest(rows[i].job);
            ++result_.events;
            ++result_.replayed_events;
            if (result_.events % options_.report_every_events == 0) {
              report(start);
            }
            if (result_.events % options_.checkpoint_every_events == 0) {
              checkpoint(lines[i]);
            }
          }
        }
        carry.erase(0, begin);
      }
      if (bytes != expected_bytes || !carry.empty()) {
        throw std::runtime_error("serve replay: input not consumed whole");
      }
      checkpoint({{}, lineno_, consumed_});
      report(start);
    }

    [[nodiscard]] const stream::IngestResult& result() const noexcept {
      return result_;
    }

   private:
    struct Line {
      std::string_view text;
      std::uint64_t lineno = 0;
      std::uint64_t consumed = 0;  ///< input bytes up to its newline
    };

    void report(Clock::time_point start) {
      Tracer::Scope s(&tracer_, "stream.report");
      result_.wall_seconds = seconds_since(start);
      result_.events_per_sec =
          static_cast<double>(result_.events) / result_.wall_seconds;
      lumos::obs::write_json_atomic(
          stream::make_report_document(result_, parse_opts_.origin),
          options_.output_path);
      ++result_.reports_written;
    }

    void checkpoint(const Line& at) {
      stream::Checkpoint cp;
      cp.cursor.input = options_.input_path;
      cp.cursor.byte_offset = at.consumed;
      cp.cursor.line = at.lineno;
      cp.cursor.events = result_.events;
      cp.cursor.bad_rows = result_.bad_rows;
      cp.cursor.unknown_runtime = result_.unknown_runtime;
      {
        Tracer::Scope s(&tracer_, "stream.fingerprint");
        cp.cursor.fingerprint =
            stream::input_fingerprint(options_.input_path, at.consumed);
      }
      {
        Tracer::Scope s(&tracer_, "stream.snapshot");
        cp.characterizer = result_.characterizer.snapshot();
      }
      Tracer::Scope s(&tracer_, "stream.checkpoint_save");
      stream::save_checkpoint(cp, options_.checkpoint_path);
      ++result_.checkpoints_written;
    }

    Tracer& tracer_;
    const stream::IngestOptions& options_;
    trace::ParseOptions parse_opts_;
    stream::IngestResult result_;
    std::uint64_t lineno_ = 0;
    std::uint64_t consumed_ = 0;
  };

  fs::path fresh_dir() {
    const fs::path dir = ctx_.workdir / ("serve-" + std::to_string(runs_++));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
  }

  stream::IngestOptions ingest_options(const fs::path& dir) const {
    stream::IngestOptions options;
    options.input_path = input_.string();
    options.output_path = (dir / "report.json").string();
    options.checkpoint_path = (dir / "checkpoint.json").string();
    options.checkpoint_every_events = kCheckpointEvery;
    options.config = config_;
    return options;
  }

  Context ctx_;
  fs::path input_;
  std::uint64_t input_bytes_ = 0;
  std::size_t emitted_rows_ = 0;
  stream::StreamConfig config_;
  std::uint64_t runs_ = 0;
  std::unique_ptr<stream::IngestResult> last_;
};

}  // namespace

std::unique_ptr<Workload> make_serve(const Context& ctx) {
  return std::make_unique<Serve>(ctx);
}

}  // namespace perfbench
