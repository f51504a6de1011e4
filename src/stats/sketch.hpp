// Mergeable streaming sketches: bounded-memory quantile/ECDF estimation.
//
// The exact stats layer (`Ecdf`, `summarize`) needs the whole sample in
// memory; these sketches answer the same queries over unbounded streams
// with O(k log(n/k)) retained items — the substrate of the streaming
// "lumos-served" mode (DESIGN.md "Streaming mode", `src/stream`). Two
// complementary error models:
//
//   QuantileSketch     — KLL-style compactor hierarchy (Karnin-Lang-
//                        Liberty 2016). Guarantees *rank* error: a
//                        quantile query returns a value whose true rank
//                        is within epsilon() * n of the requested one.
//                        Accuracy is value-scale-free.
//   StreamingHistogram — log-bucket histogram (DDSketch-style,
//                        Masson et al. 2019). Guarantees *relative value*
//                        error: the returned quantile value is within
//                        relative_error() of the true quantile value.
//                        Merge is exact (bucket-wise add), so sharded
//                        ingest is bit-identical to serial ingest. The
//                        buckets are a flat vector sorted by index
//                        (util/sorted_table.hpp), the snapshot layout.
//
// Both expose the `Ecdf` query surface — operator()(x) = F(x),
// quantile(q), curve(points) — so analyses can swap the exact backend for
// a sketch without touching query code, and both follow the shared
// quantile convention documented on `stats::quantile_sorted`
// (descriptive.hpp): linear interpolation at fractional position
// q * (n - 1), ties counted by upper bound. When a QuantileSketch has
// never compacted (n <= its level-0 capacity) its answers equal the exact
// code's bit for bit — the `SketchMatchesExactConvention` test pins this.
//
// Merging: merge() folds another sketch in; the result is a valid sketch
// over the union stream with the same error bound, so sharded ingest
// (split stream, sketch per shard, merge in any order) stays within
// epsilon of the serial sketch. QuantileSketch compaction uses a seeded
// util::Rng coin, so a fixed (seed, stream, merge order) reproduces the
// sketch bit-for-bit — the determinism contract every lumos experiment
// keeps.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/sorted_table.hpp"

namespace lumos::stats {

/// KLL-style mergeable quantile sketch with rank-error guarantee.
class QuantileSketch {
 public:
  struct Options {
    /// Accuracy knob: capacity of the highest compactor level. Rank error
    /// shrinks as ~1/k while retained items grow as ~3k.
    std::size_t k = 200;
    /// Seed of the compaction coin (odd/even survivor choice). Fixed by
    /// default so sketches are deterministic; vary it only to study the
    /// randomization itself.
    std::uint64_t seed = 0x6c756d6f73ULL;  // "lumos"
  };

  QuantileSketch() : QuantileSketch(Options{}) {}
  explicit QuantileSketch(Options options);

  /// Adds one observation: a push and one compare of the running
  /// retained count against the cached capacity budget. A compaction
  /// pass (sort one over-full level, halve it upward) runs only when the
  /// budget is exceeded — about every 9 inserts once level 0 sits at its
  /// floor of 8 items. The per-level capacity table behind the budget is
  /// rebuilt only when the level count changes.
  void insert(double x);

  /// Folds `other` into this sketch. The merged sketch covers the
  /// concatenated streams and keeps the epsilon() bound. Merging in any
  /// order yields rank-equivalent (not bit-identical) sketches.
  void merge(const QuantileSketch& other);

  /// Stream length so far (the n of the rank-error bound).
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  /// Exact stream extremes (tracked outside the compactors).
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

  /// Configured normalized rank-error bound: for any q, the true rank of
  /// quantile(q) is within epsilon() * count() of q * count(). The
  /// constant is conservative for the c = 2/3 compactor geometry; tests
  /// assert the observed error against this bound on the seed traces.
  [[nodiscard]] double epsilon() const noexcept {
    return 3.0 / static_cast<double>(k_);
  }

  /// Items currently held across all levels — the memory footprint proxy
  /// (8 bytes each). Bounded by ~3k + 8 * levels regardless of count().
  [[nodiscard]] std::size_t retained() const noexcept { return retained_; }

  // ---- Ecdf-compatible query surface (shared quantile convention) ----

  /// Approximate F(x) = P(X <= x); 0 for an empty sketch.
  [[nodiscard]] double operator()(double x) const;

  /// Approximate inverse CDF with linear interpolation; q clamped to
  /// [0, 1]. Follows the quantile_sorted convention (descriptive.hpp);
  /// exact (bitwise) while the sketch has never compacted.
  [[nodiscard]] double quantile(double q) const;

  /// `points` (x, F(x)) pairs evenly spaced in probability, min and max
  /// included — same shape as Ecdf::curve.
  [[nodiscard]] std::vector<std::pair<double, double>> curve(
      std::size_t points) const;

  // ---- checkpoint/restore (crash-consistent serve mode) ----

  /// Complete sketch state, including the compaction coin. restore() of a
  /// snapshot yields a sketch that is bit-identical to the original — it
  /// answers every query identically AND continues ingesting identically,
  /// because the coin state rides along. The streaming checkpoint codec
  /// (stream/snapshot.hpp) serializes this to schema-checked JSON.
  struct Snapshot {
    std::size_t k = 0;                        ///< clamped accuracy knob
    util::Rng::State rng;                     ///< compaction-coin state
    std::vector<std::vector<double>> levels;  ///< items per weight level
    std::uint64_t count = 0;
    double min = 0.0;
    double max = 0.0;
  };
  [[nodiscard]] Snapshot snapshot() const;
  /// Rebuilds a sketch from a snapshot. Throws lumos::InvalidArgument on
  /// inconsistent state (total retained weight must equal count) so a
  /// corrupted checkpoint can never restore into a silently-wrong sketch.
  [[nodiscard]] static QuantileSketch restore(const Snapshot& snapshot);

 private:
  /// Recomputes capacities_ and budget_ for the current level count: the
  /// top level gets k, lower levels decay by c = 2/3, floored at
  /// kMinLevelCapacity. Runs only when levels_.size() changes (first
  /// insert, a level added by compress(), merge() resizing, restore()).
  void rebuild_capacities();
  /// Compacts the lowest over-full level until within budget.
  void compress();
  /// Sorted (value, weight) view of every retained item; cached until the
  /// next mutation.
  void ensure_view() const;

  static constexpr std::size_t kMinLevelCapacity = 8;

  std::size_t k_;
  util::Rng rng_;
  /// levels_[h] holds items of weight 2^h, unsorted between compactions.
  std::vector<std::vector<double>> levels_;
  std::uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;

  // Derived from k_ and levels_, never part of a Snapshot: capacities_[h]
  // is level h's capacity at the current level count, budget_ their sum,
  // retained_ the running total of levels_[h].size().
  std::vector<std::size_t> capacities_;
  std::size_t budget_ = 0;
  std::size_t retained_ = 0;

  mutable bool view_dirty_ = true;
  mutable std::vector<std::pair<double, std::uint64_t>> view_;
};

/// Mergeable log-bucket histogram with a relative value-error guarantee.
class StreamingHistogram {
 public:
  struct Options {
    /// Relative accuracy alpha: quantile values are within alpha of the
    /// true quantile value (for values above `min_value`).
    double relative_error = 0.01;
    /// Values in [0, min_value) fold into the zero bucket.
    double min_value = 1e-9;
    /// Hard memory cap: when exceeded, the lowest buckets collapse into
    /// one (the DDSketch collapse rule), sacrificing low-tail accuracy
    /// but never the bound for large values.
    std::size_t max_buckets = 2048;
  };

  StreamingHistogram() : StreamingHistogram(Options{}) {}
  explicit StreamingHistogram(Options options);

  /// Adds one non-negative observation (negatives clamp to 0): a binary
  /// search of the sorted bucket table, and an insert in index order when
  /// the bucket is new.
  void insert(double x);

  /// Bucket-wise add — exact, commutative, and associative, so sharded
  /// ingest merges bit-identically to serial ingest. Requires equal
  /// Options on both sides (throws lumos::InvalidArgument otherwise).
  void merge(const StreamingHistogram& other);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] double relative_error() const noexcept {
    return options_.relative_error;
  }
  /// Non-empty buckets currently held (memory proxy; <= max_buckets + 1).
  [[nodiscard]] std::size_t buckets() const noexcept {
    return buckets_.size() + (zero_count_ > 0 ? 1u : 0u);
  }

  // ---- Ecdf-compatible query surface ----

  /// Approximate F(x); exact for the zero bucket, within one bucket
  /// otherwise.
  [[nodiscard]] double operator()(double x) const;
  /// Approximate inverse CDF; the returned value is within
  /// relative_error() of the order statistic at position
  /// floor(q * (n - 1)) when that value is above min_value. (Unlike the
  /// rank-error sketch, a log-bucket histogram cannot bound its distance
  /// to the *interpolated* type-7 value: interpolation may land between
  /// two arbitrarily distant sample values.)
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] std::vector<std::pair<double, double>> curve(
      std::size_t points) const;

  // ---- checkpoint/restore (crash-consistent serve mode) ----

  /// Complete histogram state; restore() is exact (the histogram is pure
  /// counts — no randomness), so a checkpointed histogram round-trips
  /// bit-identically.
  struct Snapshot {
    Options options;
    /// (bucket index, count) sorted by index; restore() also accepts
    /// any order.
    util::SortedTable<std::int32_t, std::uint64_t> buckets;
    std::uint64_t zero_count = 0;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  [[nodiscard]] Snapshot snapshot() const;
  /// Throws lumos::InvalidArgument on inconsistent state (a repeated
  /// bucket index; bucket counts plus the zero bucket must sum to count;
  /// options must validate).
  [[nodiscard]] static StreamingHistogram restore(const Snapshot& snapshot);

 private:
  [[nodiscard]] std::int32_t bucket_index(double x) const;
  [[nodiscard]] double bucket_value(std::int32_t index) const;
  void collapse_if_needed();

  Options options_;
  double log_gamma_;
  /// (bucket index, count) sorted by index, so quantile walks are one
  /// pass and snapshot() is a copy.
  util::SortedTable<std::int32_t, std::uint64_t> buckets_;
  std::uint64_t zero_count_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace lumos::stats
