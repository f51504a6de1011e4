#include "stats/sketch.hpp"

#include <algorithm>
#include <cmath>

#include "util/annotations.hpp"
#include "util/error.hpp"

namespace lumos::stats {

// ------------------------------------------------------------------ KLL --

namespace {
/// Compactor capacity decay: level h (0 = finest) holds k * c^(H-1-h).
constexpr double kDecay = 2.0 / 3.0;
}  // namespace

QuantileSketch::QuantileSketch(Options options)
    : k_(std::max<std::size_t>(options.k, 2 * kMinLevelCapacity)),
      rng_(options.seed) {}

void QuantileSketch::rebuild_capacities() {
  const std::size_t num_levels = levels_.size();
  capacities_.resize(num_levels);
  budget_ = 0;
  for (std::size_t h = 0; h < num_levels; ++h) {
    const double decayed =
        static_cast<double>(k_) *
        std::pow(kDecay, static_cast<double>(num_levels - 1 - h));
    capacities_[h] = std::max(static_cast<std::size_t>(std::ceil(decayed)),
                              kMinLevelCapacity);
    budget_ += capacities_[h];
  }
}

LUMOS_HOT_PATH void QuantileSketch::insert(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  if (levels_.empty()) {
    levels_.emplace_back();
    rebuild_capacities();
  }
  levels_.front().push_back(x);
  ++retained_;
  ++count_;
  view_dirty_ = true;
  if (retained_ > budget_) compress();
}

void QuantileSketch::merge(const QuantileSketch& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  if (levels_.size() < other.levels_.size()) {
    levels_.resize(other.levels_.size());
    rebuild_capacities();
  }
  for (std::size_t h = 0; h < other.levels_.size(); ++h) {
    levels_[h].insert(levels_[h].end(), other.levels_[h].begin(),
                      other.levels_[h].end());
  }
  retained_ += other.retained_;
  count_ += other.count_;
  view_dirty_ = true;
  if (retained_ > budget_) compress();
}

void QuantileSketch::compress() {
  while (retained_ > budget_) {
    const std::size_t num_levels = levels_.size();
    // Budget exceeded implies (pigeonhole) some level exceeds its own
    // capacity; compact the lowest such level, halving it upward.
    std::size_t l = 0;
    while (l < num_levels && levels_[l].size() <= capacities_[l]) ++l;
    if (l == num_levels) break;  // growing levels_ raised the budget
    // Grow first: emplace_back would invalidate references into levels_.
    if (l + 1 == levels_.size()) {
      levels_.emplace_back();
      rebuild_capacities();
    }
    auto& level = levels_[l];
    auto& above = levels_[l + 1];
    std::sort(level.begin(), level.end());
    // Compact an even count so total weight is preserved exactly: an odd
    // straggler stays behind at this level.
    bool has_carry = false;
    double carry = 0.0;
    if (level.size() % 2 == 1) {
      has_carry = true;
      carry = level.back();
      level.pop_back();
    }
    const bool keep_odd = rng_.bernoulli(0.5);
    for (std::size_t i = keep_odd ? 1 : 0; i < level.size(); i += 2) {
      above.push_back(level[i]);
    }
    retained_ -= level.size() / 2;
    level.clear();
    if (has_carry) level.push_back(carry);
  }
  view_dirty_ = true;
}

void QuantileSketch::ensure_view() const {
  if (!view_dirty_) return;
  view_.clear();
  view_.reserve(retained_);
  std::uint64_t weight = 1;
  for (const auto& level : levels_) {
    for (double v : level) view_.emplace_back(v, weight);
    weight <<= 1;
  }
  std::sort(view_.begin(), view_.end());
  view_dirty_ = false;
}

double QuantileSketch::operator()(double x) const {
  if (count_ == 0) return 0.0;
  ensure_view();
  std::uint64_t below_or_equal = 0;
  for (const auto& [value, weight] : view_) {
    if (value > x) break;
    below_or_equal += weight;
  }
  return static_cast<double>(below_or_equal) / static_cast<double>(count_);
}

double QuantileSketch::quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  ensure_view();
  // Shared convention (see quantile_sorted): target the fractional
  // position q * (n - 1) in 0-based order-statistic space. An item of
  // weight w occupying cumulative slots [c, c + w) represents the order
  // statistic at the center position c + (w - 1) / 2; interpolate
  // linearly between consecutive representatives, anchored at the exact
  // stream min (position 0) and max (position n - 1). With all weights 1
  // this reduces to quantile_sorted exactly.
  const double pos =
      q * (static_cast<double>(count_) - 1.0);
  double prev_pos = 0.0;
  double prev_value = min_;
  double cumulative = 0.0;
  for (const auto& [value, weight] : view_) {
    const double w = static_cast<double>(weight);
    const double center = cumulative + (w - 1.0) / 2.0;
    if (pos <= center) {
      if (center <= prev_pos) return value;
      const double frac = (pos - prev_pos) / (center - prev_pos);
      return prev_value * (1.0 - frac) + value * frac;
    }
    prev_pos = center;
    prev_value = value;
    cumulative += w;
  }
  return max_;
}

QuantileSketch::Snapshot QuantileSketch::snapshot() const {
  Snapshot snap;
  snap.k = k_;
  snap.rng = rng_.state();
  snap.levels = levels_;
  snap.count = count_;
  snap.min = min_;
  snap.max = max_;
  return snap;
}

QuantileSketch QuantileSketch::restore(const Snapshot& snapshot) {
  // Weight conservation is the sketch's core invariant: every level-h
  // item represents 2^h stream elements. A checkpoint that fails it is
  // corrupt and must not restore into a silently-wrong sketch.
  std::uint64_t weight = 0;
  std::size_t retained = 0;
  LUMOS_REQUIRE(snapshot.levels.size() < 64,
                "QuantileSketch snapshot: too many levels");
  for (std::size_t h = 0; h < snapshot.levels.size(); ++h) {
    weight += static_cast<std::uint64_t>(snapshot.levels[h].size()) << h;
    retained += snapshot.levels[h].size();
  }
  LUMOS_REQUIRE(weight == snapshot.count,
                "QuantileSketch snapshot: retained weight does not match "
                "count");
  LUMOS_REQUIRE(snapshot.count == 0 || snapshot.min <= snapshot.max,
                "QuantileSketch snapshot: min exceeds max");
  Options options;
  options.k = snapshot.k;
  QuantileSketch sketch(options);
  LUMOS_REQUIRE(sketch.k_ == snapshot.k,
                "QuantileSketch snapshot: k below the minimum capacity");
  sketch.rng_.set_state(snapshot.rng);
  sketch.levels_ = snapshot.levels;
  sketch.rebuild_capacities();
  sketch.retained_ = retained;
  sketch.count_ = snapshot.count;
  sketch.min_ = snapshot.min;
  sketch.max_ = snapshot.max;
  sketch.view_dirty_ = true;
  return sketch;
}

std::vector<std::pair<double, double>> QuantileSketch::curve(
    std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (count_ == 0 || points == 0) return out;
  if (points == 1) {
    out.emplace_back(max_, 1.0);
    return out;
  }
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double q = static_cast<double>(i) / static_cast<double>(points - 1);
    out.emplace_back(quantile(q), q);
  }
  return out;
}

// ----------------------------------------------------- StreamingHistogram --

StreamingHistogram::StreamingHistogram(Options options) : options_(options) {
  LUMOS_REQUIRE(options_.relative_error > 0.0 &&
                    options_.relative_error < 1.0,
                "StreamingHistogram relative_error must be in (0, 1)");
  LUMOS_REQUIRE(options_.min_value > 0.0,
                "StreamingHistogram min_value must be positive");
  LUMOS_REQUIRE(options_.max_buckets >= 2,
                "StreamingHistogram max_buckets must be >= 2");
  const double gamma =
      (1.0 + options_.relative_error) / (1.0 - options_.relative_error);
  log_gamma_ = std::log(gamma);
}

std::int32_t StreamingHistogram::bucket_index(double x) const {
  return static_cast<std::int32_t>(std::ceil(std::log(x) / log_gamma_));
}

double StreamingHistogram::bucket_value(std::int32_t index) const {
  // Midpoint-of-bucket representative: within relative_error of every
  // value the bucket covers.
  const double gamma = std::exp(log_gamma_);
  return 2.0 * std::exp(static_cast<double>(index) * log_gamma_) /
         (gamma + 1.0);
}

LUMOS_HOT_PATH void StreamingHistogram::insert(double x) {
  if (x < 0.0) x = 0.0;
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  if (x < options_.min_value) {
    ++zero_count_;
  } else {
    ++util::find_or_insert(buckets_, bucket_index(x))->second;
    collapse_if_needed();
  }
  ++count_;
  sum_ += x;
}

void StreamingHistogram::merge(const StreamingHistogram& other) {
  LUMOS_REQUIRE(options_.relative_error == other.options_.relative_error &&
                    options_.min_value == other.options_.min_value &&
                    options_.max_buckets == other.options_.max_buckets,
                "StreamingHistogram::merge requires identical options");
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  util::merge_into(buckets_, other.buckets_,
                   [](std::uint64_t& mine, std::uint64_t theirs) {
                     mine += theirs;
                   });
  zero_count_ += other.zero_count_;
  count_ += other.count_;
  sum_ += other.sum_;
  collapse_if_needed();
}

void StreamingHistogram::collapse_if_needed() {
  // Folding the lowest bucket into the next one until the cap holds is
  // folding every excess bucket into the lowest one kept.
  if (buckets_.size() <= options_.max_buckets) return;
  const std::size_t excess = buckets_.size() - options_.max_buckets;
  for (std::size_t i = 0; i < excess; ++i) {
    buckets_[excess].second += buckets_[i].second;
  }
  buckets_.erase(buckets_.begin(),
                 buckets_.begin() + static_cast<std::ptrdiff_t>(excess));
}

double StreamingHistogram::operator()(double x) const {
  if (count_ == 0) return 0.0;
  if (x < 0.0) return 0.0;
  std::uint64_t below_or_equal = zero_count_;
  if (x >= options_.min_value) {
    const std::int32_t limit = bucket_index(x);
    for (const auto& [index, n] : buckets_) {
      if (index > limit) break;
      below_or_equal += n;
    }
  }
  return static_cast<double>(below_or_equal) / static_cast<double>(count_);
}

double StreamingHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  const double target = q * (static_cast<double>(count_) - 1.0);
  double cumulative = static_cast<double>(zero_count_);
  if (target < cumulative) return 0.0;
  for (const auto& [index, n] : buckets_) {
    cumulative += static_cast<double>(n);
    if (target < cumulative) {
      return std::clamp(bucket_value(index), min_, max_);
    }
  }
  return max_;
}

StreamingHistogram::Snapshot StreamingHistogram::snapshot() const {
  Snapshot snap;
  snap.options = options_;
  snap.buckets = buckets_;
  snap.zero_count = zero_count_;
  snap.count = count_;
  snap.sum = sum_;
  snap.min = min_;
  snap.max = max_;
  return snap;
}

StreamingHistogram StreamingHistogram::restore(const Snapshot& snapshot) {
  StreamingHistogram hist(snapshot.options);  // validates the options
  hist.buckets_ = snapshot.buckets;
  LUMOS_REQUIRE(util::sort_unique_keys(hist.buckets_),
                "StreamingHistogram snapshot: duplicate bucket index");
  std::uint64_t total = snapshot.zero_count;
  for (const auto& [index, n] : hist.buckets_) total += n;
  LUMOS_REQUIRE(total == snapshot.count,
                "StreamingHistogram snapshot: bucket counts do not sum to "
                "count");
  LUMOS_REQUIRE(snapshot.count == 0 || snapshot.min <= snapshot.max,
                "StreamingHistogram snapshot: min exceeds max");
  LUMOS_REQUIRE(snapshot.buckets.size() <= snapshot.options.max_buckets,
                "StreamingHistogram snapshot: more buckets than max_buckets");
  hist.zero_count_ = snapshot.zero_count;
  hist.count_ = snapshot.count;
  hist.sum_ = snapshot.sum;
  hist.min_ = snapshot.min;
  hist.max_ = snapshot.max;
  return hist;
}

std::vector<std::pair<double, double>> StreamingHistogram::curve(
    std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (count_ == 0 || points == 0) return out;
  if (points == 1) {
    out.emplace_back(max_, 1.0);
    return out;
  }
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double q = static_cast<double>(i) / static_cast<double>(points - 1);
    out.emplace_back(quantile(q), q);
  }
  return out;
}

}  // namespace lumos::stats
