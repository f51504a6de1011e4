// Shared pieces of the lumos end-to-end benchmark: the span tracer, the
// output digest, timing helpers, and the Workload interface each of the
// four workloads implements.
//
// The benchmark only calls the library's public functions; spans are
// recorded around those calls from outside (no instrumentation inside
// src/). See perfbench/README.md for the method.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU seconds the process has used so far: user plus system time of all
/// its threads (CLOCK_PROCESS_CPUTIME_ID).
double process_cpu_seconds();

/// Wall and process-CPU time since construction. The end-to-end rates are
/// computed over CPU time: on a shared host the wall clock also counts the
/// time the process waits for a core (README "Method").
class Stopwatch {
 public:
  [[nodiscard]] double wall_s() const { return seconds_since(wall0_); }
  [[nodiscard]] double cpu_s() const { return process_cpu_seconds() - cpu0_; }

 private:
  Clock::time_point wall0_ = Clock::now();
  double cpu0_ = process_cpu_seconds();
};

/// Median of a non-empty sample (mean of the middle pair when even).
double median(std::vector<double> values);

// ---- output digests ---------------------------------------------------

/// FNV-1a (64-bit) over a canonical byte encoding of run outputs. Doubles
/// are hashed by bit pattern, so any change in any output bit shows.
class Digest {
 public:
  void bytes(const void* data, std::size_t size);
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void counters(const lumos::sim::SimCounters& c);
  void metrics(const lumos::sim::SimMetrics& m);
  void outcomes(const std::vector<lumos::sim::JobOutcome>& outcomes);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

// ---- input emitter -------------------------------------------------------

/// Writes `trace` as 18-field SWF in the layout of trace::write_swf, but
/// with every number in its shortest round-trip form (std::to_chars), so
/// the file's bytes depend only on the trace — and hence only on the
/// seed. trace::write_swf uses the stream's default 6 significant digits,
/// which quantizes submit times (README "Known defects"). Field 16
/// carries the virtual cluster id. Returns the bytes written.
std::uint64_t emit_swf(const std::filesystem::path& path,
                       const lumos::trace::Trace& trace);

// ---- spans --------------------------------------------------------------

/// One timed call into a library layer. `calls` > 1 marks a span that
/// covers a batch of identical calls (per-row functions are timed per
/// input chunk rather than per row).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t calls = 1;
};

/// In-memory span recorder for one traced run: all spans share one trace
/// id, nest strictly (the traced runs are single-threaded), and are
/// written out once at the end.
class Tracer {
 public:
  explicit Tracer(std::string trace_id);

  int begin(std::string name, std::uint64_t calls = 1);
  void end(int id);

  /// RAII span around one call.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, std::uint64_t calls = 1)
        : tracer_(tracer),
          id_(tracer != nullptr ? tracer->begin(std::move(name), calls)
                                : -1) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::string& id() const noexcept { return id_; }

  /// Self time of every span: its duration minus its children's.
  [[nodiscard]] std::vector<double> self_seconds() const;
  /// Summed self seconds and calls per span name, over the spans under
  /// (and including) the span `root`.
  struct LayerTotal {
    double self_s = 0.0;
    std::uint64_t calls = 0;
  };
  [[nodiscard]] std::map<std::string, LayerTotal> layers(int root) const;
  [[nodiscard]] double duration_s(int id) const {
    return static_cast<double>(spans_[id].end_ns - spans_[id].start_ns) *
           1e-9;
  }

  [[nodiscard]] lumos::obs::Json to_json() const;

 private:
  std::string id_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---- workloads ---------------------------------------------------------

/// Result of one timed operation (untraced).
struct Rep {
  double wall_s = 0.0;   ///< wall time inside library calls
  double cpu_s = 0.0;    ///< process CPU time inside library calls
  double jobs = 0.0;     ///< input jobs x simulations (or passes)
  double events = 0.0;   ///< events the hot loop consumed
  std::string digest;    ///< output digest (must repeat exactly)
  /// serve: every row fed counts as an attempted operation, and a bad or
  /// dropped row as a failed one.
  std::uint64_t units = 0;
  std::uint64_t failed_units = 0;
};

/// Correctness bookkeeping that feeds `attempted` / `failed`.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> messages;
  /// Records one checked operation; returns `ok`.
  bool record(bool ok, const std::string& what);
};

/// Per-layer metrics of the traced run, by catalogue name.
using Layers = std::map<std::string, double>;

struct Context {
  std::uint64_t seed = 42;
  std::filesystem::path workdir;  ///< fresh, benchmark-owned directory
};

/// Walls the tracing overhead is computed from: the traced run, and the
/// untraced run doing the same work at the same thread count.
struct TracedWall {
  double traced_s = 0.0;
  double untraced_s = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs from the seed and writes the input files.
  /// Called several times; each call replaces the previous inputs.
  virtual void setup(Tracer* tracer) = 0;
  /// One timed end-to-end operation.
  virtual Rep run() = 0;
  /// Verification outside timing (audits, exactness, counts). Also
  /// returns the digests compared against the recorded reference.
  virtual void verify(Checks& checks,
                      std::map<std::string, std::string>& digests) = 0;
  /// The traced decomposition of run(): records spans (one root span per
  /// traced run) and fills the per-layer metrics. `untraced_median_s` is
  /// the median wall of run().
  virtual TracedWall traced(Tracer& tracer, double untraced_median_s,
                            Checks& checks, Layers& layers) = 0;
  /// The seed the inputs were generated from (references are keyed by it).
  [[nodiscard]] virtual std::uint64_t input_seed() const = 0;
  /// Observations worth printing that are not failures.
  [[nodiscard]] virtual std::string notes() const { return {}; }
};

std::unique_ptr<Workload> make_table2(const Context& ctx);
std::unique_ptr<Workload> make_characterize(const Context& ctx);
std::unique_ptr<Workload> make_serve(const Context& ctx);
std::unique_ptr<Workload> make_dag_hedge(const Context& ctx);

/// Sums the simulator counters of one run into the sim.* layer metrics.
void add_sim_counters(Layers& layers, const lumos::sim::SimResult& result);
/// Derives sim.* ratios and ns/event once all runs are summed.
void finish_sim_layers(Layers& layers);

}  // namespace perfbench
