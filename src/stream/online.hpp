// stream::OnlineCharacterizer — bounded-memory, one-pass versions of the
// paper's headline characterizations.
//
// Every exact analysis in `src/analysis` loads a whole trace before
// computing anything; this class consumes job events one at a time
// (submit order) and maintains, with per-event work bounded by the
// sketch and table caps and memory independent of stream length:
//
//   * distribution sketches — runtime / wait / inter-arrival gap
//     `stats::QuantileSketch` (rank-error bound) plus a runtime
//     `stats::StreamingHistogram` (relative value error); both expose the
//     exact `Ecdf` query surface, so `analysis`-style consumers can swap
//     backends (sketch.hpp documents the shared quantile convention).
//   * the diurnal arrival profile — local hour-of-day counts, peak ratio,
//     business-hours share; identical to `analysis::analyze_arrivals`
//     because both use `util::hour_of_day` (exact, no approximation).
//   * inter-arrival moments — streaming count/sum/sum-of-squares, giving
//     the mean and CV with the same unbiased-variance convention as
//     `stats::variance` (exact up to floating-point summation order).
//   * per-user repetition (§V-A / Fig 8) — a bounded per-user table of
//     (cores, log-bucketed runtime) configuration groups approximating
//     the exact "runtime within 10% of the group mean" grouping; capped
//     at `max_tracked_users` users x `max_groups_per_user` groups with
//     deterministic smallest-count eviction (a tie evicts the first key).
//     Both tables are flat vectors sorted by key (util/sorted_table.hpp),
//     so the per-event lookup is a binary search and a snapshot is a
//     copy.
//   * tumbling windows — per-`window_seconds` job counts and arrival
//     rates, so a long-running server can report "current load" next to
//     the cumulative profile.
//
// Sharded ingest: `merge()` folds another characterizer in. Counts,
// hourly profiles, moments, and the streaming histogram merge exactly
// (for contiguous time shards the boundary inter-arrival gap is
// reconstructed from the shards' first/last submit times, so moments
// match serial ingest bit-for-bit up to summation order); quantile
// sketches merge within their epsilon bound. bench/ext_stream_ingest
// checks the merge against serial ingest, and the tsan-labelled
// concurrent-ingest test ingests shards from several threads.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/report.hpp"
#include "stats/sketch.hpp"
#include "trace/job.hpp"
#include "util/sorted_table.hpp"
#include "util/time_util.hpp"

namespace lumos::stream {

struct StreamConfig {
  /// QuantileSketch accuracy knob (rank error ~3/k).
  std::size_t sketch_k = 200;
  /// StreamingHistogram relative value error.
  double histogram_relative_error = 0.01;
  /// Per-user repetition table caps (bounded memory).
  std::size_t max_tracked_users = 512;
  std::size_t max_groups_per_user = 64;
  /// Users with fewer jobs are not "representative" (§V-A default 50).
  std::size_t min_jobs_per_user = 50;
  /// Runtime grouping tolerance: the streaming stand-in for the exact
  /// "within 10% of the group mean" rule buckets log(runtime) with
  /// bucket ratio (1 + 2 * run_tolerance).
  double run_tolerance = 0.10;
  /// Local-time base for the diurnal profile (copy from SystemSpec).
  std::int64_t epoch_unix = 0;
  double utc_offset_hours = 0.0;
  /// Tumbling-window length for the live-load summaries.
  double window_seconds = util::kDay;
  /// Compaction-coin seed forwarded to the quantile sketches.
  std::uint64_t sketch_seed = 0x6c756d6f73ULL;
};

/// One completed tumbling window.
struct WindowSummary {
  double start = 0.0;           ///< window start, trace seconds
  std::uint64_t jobs = 0;       ///< submissions inside the window
  double rate_per_hour = 0.0;   ///< jobs / window hours
};

class OnlineCharacterizer {
 public:
  OnlineCharacterizer() : OnlineCharacterizer(StreamConfig{}) {}
  explicit OnlineCharacterizer(StreamConfig config);

  /// Consumes one job event. Events should arrive in non-decreasing
  /// submit order; a regression is tolerated (the gap clamps to zero and
  /// `out_of_order()` counts it).
  void ingest(const trace::Job& job);

  /// Folds another shard's state in (see the header comment for what is
  /// exact vs within-epsilon). Requires identical StreamConfig; throws
  /// lumos::InvalidArgument otherwise.
  void merge(const OnlineCharacterizer& other);

  [[nodiscard]] const StreamConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::uint64_t jobs() const noexcept { return jobs_; }
  [[nodiscard]] bool empty() const noexcept { return jobs_ == 0; }
  [[nodiscard]] std::uint64_t out_of_order() const noexcept {
    return out_of_order_;
  }
  [[nodiscard]] double first_submit() const noexcept { return first_submit_; }
  [[nodiscard]] double last_submit() const noexcept { return last_submit_; }

  // ---- distribution sketches ----
  [[nodiscard]] const stats::QuantileSketch& runtime_sketch() const noexcept {
    return runtime_sketch_;
  }
  [[nodiscard]] const stats::QuantileSketch& wait_sketch() const noexcept {
    return wait_sketch_;
  }
  [[nodiscard]] const stats::QuantileSketch& interarrival_sketch()
      const noexcept {
    return interarrival_sketch_;
  }
  [[nodiscard]] const stats::StreamingHistogram& runtime_histogram()
      const noexcept {
    return runtime_histogram_;
  }

  // ---- diurnal profile (exact) ----
  [[nodiscard]] const std::array<double, 24>& hourly() const noexcept {
    return hourly_;
  }
  /// max/min over hourly counts (max alone when some hour is empty) —
  /// the Fig 1(b) peak ratio.
  [[nodiscard]] double peak_ratio() const noexcept;
  /// Fraction of jobs submitted 8am-5pm local time.
  [[nodiscard]] double business_hours_share() const noexcept;

  // ---- inter-arrival moments (exact) ----
  [[nodiscard]] std::uint64_t interarrival_gaps() const noexcept {
    return gap_count_;
  }
  [[nodiscard]] double interarrival_mean() const noexcept;
  /// Coefficient of variation, unbiased-variance convention
  /// (stats::variance); 0 with fewer than 2 gaps or zero mean.
  [[nodiscard]] double interarrival_cv() const noexcept;

  // ---- per-user repetition (bounded approximation of Fig 8) ----
  struct Repetition {
    /// Mean over representative users of (top-k group jobs / user jobs).
    double topk_share = 0.0;
    std::size_t representative_users = 0;
    double mean_groups_per_user = 0.0;
  };
  [[nodiscard]] Repetition repetition(std::size_t top_k) const;
  [[nodiscard]] std::size_t tracked_users() const noexcept {
    return users_.size();
  }
  /// Jobs whose per-user state was evicted by the capacity caps.
  [[nodiscard]] std::uint64_t untracked_jobs() const noexcept {
    return untracked_jobs_;
  }

  // ---- tumbling windows ----
  [[nodiscard]] std::uint64_t windows_completed() const noexcept {
    return windows_completed_;
  }
  /// Most recently completed window (jobs == 0 when none completed yet).
  [[nodiscard]] const WindowSummary& last_window() const noexcept {
    return last_window_;
  }
  /// Submissions in the currently open window.
  [[nodiscard]] std::uint64_t open_window_jobs() const noexcept {
    return open_window_jobs_;
  }

  // ---- memory accounting & export ----
  /// Total retained state slots: sketch items + histogram buckets +
  /// user-table entries. The bounded-memory claim is about this number:
  /// it plateaus as the stream grows (asserted in tests and published as
  /// a gauge by the ingest driver / bench).
  [[nodiscard]] std::size_t retained_items() const noexcept;

  /// Writes the characterization into `report.metrics` under
  /// `prefix` + key (see DESIGN.md "Streaming mode" for the key list).
  /// Every published value is deterministic in (stream, config).
  void publish(obs::Report& report, const std::string& prefix) const;

  // ---- checkpoint/restore (crash-consistent serve mode) ----

  /// Complete characterizer state. restore() is bit-identical: the
  /// restored characterizer answers every query identically AND continues
  /// ingesting identically to the original (sketch compaction coins ride
  /// along), which is what makes kill-and-resume drills reproduce an
  /// uninterrupted run exactly. stream/snapshot.hpp provides the
  /// schema-checked JSON codec used by run_ingest checkpoints.
  struct Snapshot {
    StreamConfig config;
    std::uint64_t jobs = 0;
    std::uint64_t out_of_order = 0;
    double first_submit = 0.0;
    double last_submit = 0.0;
    stats::QuantileSketch::Snapshot runtime_sketch;
    stats::QuantileSketch::Snapshot wait_sketch;
    stats::QuantileSketch::Snapshot interarrival_sketch;
    stats::StreamingHistogram::Snapshot runtime_histogram;
    std::array<double, 24> hourly{};
    std::uint64_t gap_count = 0;
    double gap_sum = 0.0;
    double gap_sum_sq = 0.0;
    struct UserEntry {
      std::uint32_t id = 0;
      std::uint64_t jobs = 0;
      std::uint64_t overflow = 0;
      /// (cores, runtime log-bucket) group key -> count, sorted by key;
      /// restore() also accepts any order.
      util::SortedTable<std::uint64_t, std::uint64_t> groups;
    };
    /// Sorted by id; restore() also accepts any order.
    std::vector<UserEntry> users;
    std::uint64_t untracked_jobs = 0;
    std::int64_t open_window_index = 0;
    bool window_started = false;
    std::uint64_t open_window_jobs = 0;
    std::uint64_t windows_completed = 0;
    WindowSummary last_window;
  };
  [[nodiscard]] Snapshot snapshot() const;
  /// Rebuilds a characterizer from a snapshot. Throws
  /// lumos::InvalidArgument on inconsistent state (invalid config, sketch
  /// invariant violations, capacity caps exceeded, duplicate users or
  /// group keys) so a corrupted checkpoint can never restore into
  /// silently-wrong state.
  [[nodiscard]] static OnlineCharacterizer restore(const Snapshot& snapshot);

 private:
  struct UserState {
    std::uint64_t jobs = 0;
    /// (cores, runtime log-bucket) -> job count, sorted by key.
    util::SortedTable<std::uint64_t, std::uint64_t> groups;
    /// Jobs whose group slot was evicted (count toward totals, never
    /// toward a top-k group).
    std::uint64_t overflow = 0;
  };

  [[nodiscard]] std::uint64_t group_key(const trace::Job& job) const;
  void bound_user_groups(UserState& user);
  void evict_smallest_user();
  void advance_window(double t);

  StreamConfig config_;
  /// log(1 + 2 * run_tolerance), the group_key bucket width; derived from
  /// config_ and never part of a Snapshot.
  double log_run_ratio_;
  std::uint64_t jobs_ = 0;
  std::uint64_t out_of_order_ = 0;
  double first_submit_ = 0.0;
  double last_submit_ = 0.0;

  stats::QuantileSketch runtime_sketch_;
  stats::QuantileSketch wait_sketch_;
  stats::QuantileSketch interarrival_sketch_;
  stats::StreamingHistogram runtime_histogram_;

  std::array<double, 24> hourly_{};

  std::uint64_t gap_count_ = 0;
  double gap_sum_ = 0.0;
  double gap_sum_sq_ = 0.0;

  /// user id -> state, sorted by id.
  util::SortedTable<std::uint32_t, UserState> users_;
  std::uint64_t untracked_jobs_ = 0;

  std::int64_t open_window_index_ = 0;
  bool window_started_ = false;
  std::uint64_t open_window_jobs_ = 0;
  std::uint64_t windows_completed_ = 0;
  WindowSummary last_window_;
};

}  // namespace lumos::stream
