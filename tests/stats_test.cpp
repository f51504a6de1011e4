// Unit tests for the stats substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "stats/sketch.hpp"
#include "stats/descriptive.hpp"
#include "stats/ecdf.hpp"
#include "stats/histogram.hpp"
#include "stats/kde.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace lumos::stats {
namespace {

// --------------------------------------------------------- descriptive ---

TEST(Descriptive, MeanAndVariance) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Descriptive, EmptyAndSingleton) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{3.0}), 0.0);
  const auto s = summarize({});
  EXPECT_EQ(s.count, 0u);
}

TEST(Descriptive, QuantileInterpolates) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
}

TEST(Descriptive, QuantileRejectsBadQ) {
  EXPECT_THROW((void)quantile(std::vector<double>{1.0}, 1.5), InvalidArgument);
}

TEST(Descriptive, SummaryFields) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(static_cast<double>(i));
  const auto s = summarize(xs);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.median, 50.5);
  EXPECT_NEAR(s.p90, 90.1, 1e-9);
  EXPECT_DOUBLE_EQ(s.sum, 5050.0);
  EXPECT_FALSE(to_string(s).empty());
}

// ---------------------------------------------------------------- ecdf ---

TEST(Ecdf, EvaluatesStepFunction) {
  const Ecdf f(std::vector<double>{1.0, 2.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(f(0.5), 0.0);
  EXPECT_DOUBLE_EQ(f(1.0), 0.25);
  EXPECT_DOUBLE_EQ(f(2.0), 0.75);
  EXPECT_DOUBLE_EQ(f(10.0), 1.0);
}

TEST(Ecdf, QuantileInverse) {
  const Ecdf f(std::vector<double>{10.0, 20.0, 30.0});
  EXPECT_DOUBLE_EQ(f.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(f.quantile(1.0), 30.0);
  EXPECT_DOUBLE_EQ(f.quantile(0.5), 20.0);
}

TEST(Ecdf, CurveEndpoints) {
  const Ecdf f(std::vector<double>{5.0, 1.0, 3.0});
  const auto curve = f.curve(5);
  ASSERT_EQ(curve.size(), 5u);
  EXPECT_DOUBLE_EQ(curve.front().first, 1.0);
  EXPECT_DOUBLE_EQ(curve.back().first, 5.0);
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST(Ecdf, EmptyIsZero) {
  const Ecdf f;
  EXPECT_DOUBLE_EQ(f(1.0), 0.0);
  EXPECT_TRUE(f.curve(3).empty());
}

// ----------------------------------------------------------- histogram ---

TEST(Histogram, HourlyCounts) {
  // Jobs at local hours 0, 0, 5 with zero offset.
  const std::vector<double> submits{10.0, 60.0, 5.0 * 3600.0 + 1.0};
  const auto counts = hourly_counts(submits, 0, 0.0);
  EXPECT_DOUBLE_EQ(counts[0], 2.0);
  EXPECT_DOUBLE_EQ(counts[5], 1.0);
}

// ----------------------------------------------------------------- kde ---

TEST(Kde, DensityIntegratesToOne) {
  util::Rng rng(3);
  std::vector<double> xs(2000);
  for (auto& x : xs) x = rng.normal(0.0, 1.0);
  const double h = scott_bandwidth(xs);
  double integral = 0.0;
  const double dx = 0.05;
  for (double x = -6.0; x <= 6.0; x += dx) {
    integral += kde_density(xs, x, h) * dx;
  }
  EXPECT_NEAR(integral, 1.0, 0.02);
}

TEST(Kde, ViolinModeNearTrueMode) {
  util::Rng rng(5);
  std::vector<double> xs(4000);
  for (auto& x : xs) x = std::pow(10.0, rng.normal(1.0, 0.1));
  const auto v = violin_log(xs, 128);
  EXPECT_EQ(v.count, xs.size());
  EXPECT_NEAR(std::log10(v.mode), 1.0, 0.05);
}

TEST(Kde, ViolinLogDropsNonPositive) {
  const std::vector<double> xs{-1.0, 0.0, 100.0, 100.0, 100.0};
  const auto v = violin_log(xs, 32);
  EXPECT_EQ(v.count, 3u);
  EXPECT_NEAR(v.mode, 100.0, 20.0);
}

TEST(Kde, EmptySampleSafe) {
  const auto v = violin_log({}, 16);
  EXPECT_EQ(v.count, 0u);
  EXPECT_TRUE(v.grid.empty());
  EXPECT_DOUBLE_EQ(kde_density({}, 0.0, 1.0), 0.0);
}

// -------------------------------------------------------------- sketch ---

// Observed normalized rank error of `value` at target quantile q against
// a sorted sample: any rank inside the [F(value-), F(value)] tie interval
// is exact, otherwise the distance to the nearer edge.
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

double max_rank_error(const QuantileSketch& sketch,
                      std::vector<double> sample) {
  std::sort(sample.begin(), sample.end());
  double worst = 0.0;
  for (int i = 0; i <= 500; ++i) {
    const double q = static_cast<double>(i) / 500.0;
    worst = std::max(worst, rank_error(sample, sketch.quantile(q), q));
  }
  return worst;
}

// A skewed runtime-like sample with heavy ties (the tie/interpolation
// cases the shared convention pins down).
std::vector<double> skewed_sample(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) {
      xs.push_back(60.0);  // atom: a popular "one minute" runtime
    } else {
      xs.push_back(std::exp(rng.normal(4.0, 2.0)));
    }
  }
  return xs;
}

// The pinning test named by the quantile-convention documentation in
// descriptive.hpp: while a sketch has never compacted (n <= level-0
// capacity), its answers equal the exact stats backends bit for bit, so
// exact and sketch implementations are swappable.
TEST(QuantileSketch, SketchMatchesExactConvention) {
  const auto xs = skewed_sample(150, 7);  // < k = 200: never compacts
  QuantileSketch sketch;
  for (double x : xs) sketch.insert(x);
  ASSERT_EQ(sketch.retained(), xs.size());

  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  const Ecdf ecdf(xs);
  for (int i = 0; i <= 100; ++i) {
    const double q = static_cast<double>(i) / 100.0;
    EXPECT_DOUBLE_EQ(sketch.quantile(q), quantile_sorted(sorted, q))
        << "q=" << q;
    EXPECT_DOUBLE_EQ(sketch.quantile(q), ecdf.quantile(q)) << "q=" << q;
  }
  for (double x : {sorted.front(), 59.9, 60.0, 60.1, sorted.back()}) {
    EXPECT_DOUBLE_EQ(sketch(x), ecdf(x)) << "x=" << x;
  }
  // Clamping edges of the shared convention.
  EXPECT_DOUBLE_EQ(sketch.quantile(-0.5), sorted.front());
  EXPECT_DOUBLE_EQ(sketch.quantile(1.5), sorted.back());
}

TEST(QuantileSketch, RankErrorWithinBoundAfterCompaction) {
  const auto xs = skewed_sample(100000, 11);
  QuantileSketch sketch;
  for (double x : xs) sketch.insert(x);
  EXPECT_EQ(sketch.count(), xs.size());
  // Compaction definitely ran: far fewer retained items than inserts.
  EXPECT_LT(sketch.retained(), 3000u);
  EXPECT_LE(max_rank_error(sketch, xs), sketch.epsilon());
  // Exact extremes survive compaction.
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_DOUBLE_EQ(sketch.min(), sorted.front());
  EXPECT_DOUBLE_EQ(sketch.max(), sorted.back());
}

TEST(QuantileSketch, BoundedMemoryPlateaus) {
  QuantileSketch sketch;
  util::Rng rng(3);
  std::size_t retained_at_100k = 0;
  for (std::size_t i = 0; i < 400000; ++i) {
    sketch.insert(rng.uniform(0.0, 1e6));
    if (i == 100000) retained_at_100k = sketch.retained();
  }
  // 4x the stream adds at most a few levels, not linear growth.
  EXPECT_LT(sketch.retained(), retained_at_100k + 200);
}

TEST(QuantileSketch, MergeCommutesWithinBound) {
  const auto xs = skewed_sample(30000, 17);
  const std::size_t third = xs.size() / 3;
  QuantileSketch a, b, c;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    (i < third ? a : i < 2 * third ? b : c).insert(xs[i]);
  }
  // (a + b) + c  vs  c + (b + a): different association and order.
  QuantileSketch left = a;
  left.merge(b);
  left.merge(c);
  QuantileSketch right = c;
  QuantileSketch ba = b;
  ba.merge(a);
  right.merge(ba);

  EXPECT_EQ(left.count(), xs.size());
  EXPECT_EQ(right.count(), xs.size());
  EXPECT_LE(max_rank_error(left, xs), left.epsilon());
  EXPECT_LE(max_rank_error(right, xs), right.epsilon());
  // Both orders agree with each other within twice the bound.
  for (int i = 0; i <= 20; ++i) {
    const double q = static_cast<double>(i) / 20.0;
    const double rank_gap =
        std::abs(left(right.quantile(q)) - right(right.quantile(q)));
    EXPECT_LE(rank_gap, 2.0 * left.epsilon()) << "q=" << q;
  }
}

TEST(QuantileSketch, EmptyAndSingle) {
  QuantileSketch sketch;
  EXPECT_TRUE(sketch.empty());
  EXPECT_DOUBLE_EQ(sketch.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(sketch(1.0), 0.0);
  EXPECT_TRUE(sketch.curve(5).empty());
  sketch.insert(42.0);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(sketch.quantile(1.0), 42.0);
  EXPECT_DOUBLE_EQ(sketch(41.0), 0.0);
  EXPECT_DOUBLE_EQ(sketch(42.0), 1.0);
}

TEST(QuantileSketch, DeterministicForFixedSeed) {
  const auto xs = skewed_sample(50000, 23);
  QuantileSketch s1, s2;
  for (double x : xs) {
    s1.insert(x);
    s2.insert(x);
  }
  for (int i = 0; i <= 100; ++i) {
    const double q = static_cast<double>(i) / 100.0;
    EXPECT_DOUBLE_EQ(s1.quantile(q), s2.quantile(q));
  }
}

TEST(StreamingHistogram, RelativeValueErrorWithinBound) {
  const auto xs = skewed_sample(50000, 29);
  StreamingHistogram hist;
  for (double x : xs) hist.insert(x);
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  for (int i = 0; i <= 500; ++i) {
    const double q = static_cast<double>(i) / 500.0;
    const auto idx = static_cast<std::size_t>(std::floor(q * (n - 1.0)));
    const double exact = sorted[idx];
    EXPECT_NEAR(hist.quantile(q), exact, exact * hist.relative_error())
        << "q=" << q;
  }
}

TEST(StreamingHistogram, ShardedMergeIsBitIdentical) {
  const auto xs = skewed_sample(20000, 31);
  StreamingHistogram serial;
  for (double x : xs) serial.insert(x);

  StreamingHistogram merged;
  const std::size_t shard_size = xs.size() / 4;
  for (std::size_t s = 0; s < 4; ++s) {
    StreamingHistogram shard;
    const std::size_t begin = s * shard_size;
    const std::size_t end =
        s == 3 ? xs.size() : begin + shard_size;
    for (std::size_t i = begin; i < end; ++i) shard.insert(xs[i]);
    merged.merge(shard);
  }
  EXPECT_EQ(merged.count(), serial.count());
  // sum() is a float accumulation — summation *order* differs between
  // sharded and serial ingest, so it matches only to rounding noise.
  EXPECT_NEAR(merged.sum(), serial.sum(), 1e-9 * serial.sum());
  EXPECT_EQ(merged.buckets(), serial.buckets());
  for (int i = 0; i <= 200; ++i) {
    const double q = static_cast<double>(i) / 200.0;
    EXPECT_DOUBLE_EQ(merged.quantile(q), serial.quantile(q)) << "q=" << q;
  }
}

TEST(StreamingHistogram, MergeRequiresIdenticalOptions) {
  StreamingHistogram a;
  StreamingHistogram::Options tighter;
  tighter.relative_error = 0.001;
  StreamingHistogram b(tighter);
  EXPECT_THROW(a.merge(b), InvalidArgument);
}

TEST(StreamingHistogram, ZeroAndNegativeValues) {
  StreamingHistogram hist;
  hist.insert(-5.0);  // clamps to 0
  hist.insert(0.0);
  hist.insert(10.0);
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_DOUBLE_EQ(hist.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(hist(0.0), 2.0 / 3.0);
  EXPECT_NEAR(hist.quantile(1.0), 10.0, 10.0 * hist.relative_error());
}

// ------------------------------- snapshots (crash-consistent restore) ----

TEST(QuantileSketch, SnapshotRestoreContinuesBitIdentically) {
  // Restore must reproduce the sketch exactly — including the compaction
  // coin — so a restored sketch fed the same remaining stream lands in
  // the same final state as one that never stopped.
  QuantileSketch original;
  util::Rng data(21);
  for (int i = 0; i < 50000; ++i) original.insert(data.lognormal(5.0, 2.0));
  QuantileSketch resumed = QuantileSketch::restore(original.snapshot());
  EXPECT_EQ(resumed.count(), original.count());
  EXPECT_EQ(resumed.retained(), original.retained());
  for (int i = 0; i < 50000; ++i) {
    const double x = data.lognormal(5.0, 2.0);
    original.insert(x);
    resumed.insert(x);
  }
  EXPECT_EQ(resumed.count(), original.count());
  EXPECT_EQ(resumed.retained(), original.retained());
  for (int i = 0; i <= 500; ++i) {
    const double q = static_cast<double>(i) / 500.0;
    EXPECT_DOUBLE_EQ(resumed.quantile(q), original.quantile(q)) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(resumed.min(), original.min());
  EXPECT_DOUBLE_EQ(resumed.max(), original.max());
}

TEST(QuantileSketch, RestoreRejectsInconsistentWeight) {
  QuantileSketch sketch;
  for (int i = 0; i < 1000; ++i) sketch.insert(static_cast<double>(i));
  auto snapshot = sketch.snapshot();
  snapshot.count += 1;  // retained weight no longer sums to count
  EXPECT_THROW(QuantileSketch::restore(snapshot), InvalidArgument);
}

TEST(QuantileSketch, RestoreRejectsInvertedMinMax) {
  QuantileSketch sketch;
  sketch.insert(1.0);
  sketch.insert(2.0);
  auto snapshot = sketch.snapshot();
  std::swap(snapshot.min, snapshot.max);
  EXPECT_THROW(QuantileSketch::restore(snapshot), InvalidArgument);
}

// The retained count recomputed from scratch: the sum of the level sizes.
std::size_t level_items(const QuantileSketch::Snapshot& snapshot) {
  std::size_t total = 0;
  for (const auto& level : snapshot.levels) total += level.size();
  return total;
}

TEST(QuantileSketch, CachedBudgetSurvivesMergeAndRestore) {
  // The per-level capacities and the retained count are cached and never
  // serialized. A restored sketch must rebuild them for the snapshot's k,
  // not the default one, so that every later compaction matches a twin
  // that never stopped, bit for bit.
  for (const std::size_t k : {50u, 400u}) {
    QuantileSketch::Options options;
    options.k = k;
    QuantileSketch twin(options);
    util::Rng data(41 + k);
    for (int i = 0; i < 20000; ++i) twin.insert(data.lognormal(5.0, 2.0));
    ASSERT_GT(twin.snapshot().levels.size(), 3u) << "k=" << k;
    QuantileSketch restored = QuantileSketch::restore(twin.snapshot());
    std::size_t compactions = 0;
    for (int i = 0; i < 20000; ++i) {
      const double x = data.lognormal(5.0, 2.0);
      const std::size_t before = twin.retained();
      twin.insert(x);
      restored.insert(x);
      ASSERT_EQ(restored.retained(), twin.retained()) << "k=" << k;
      if (twin.retained() == before + 1) continue;  // no compaction
      ++compactions;
      const auto expected = twin.snapshot();
      const auto actual = restored.snapshot();
      ASSERT_EQ(actual.levels, expected.levels) << "k=" << k << " i=" << i;
      ASSERT_EQ(actual.rng.words, expected.rng.words) << "k=" << k;
      ASSERT_EQ(twin.retained(), level_items(expected)) << "k=" << k;
    }
    EXPECT_GT(compactions, 100u) << "k=" << k;
  }

  // Merging sketches of different depths: the retained count must equal
  // the merged level sizes whichever side has more levels.
  QuantileSketch deep;
  QuantileSketch shallow;
  util::Rng data(43);
  for (int i = 0; i < 100000; ++i) deep.insert(data.uniform(0.0, 1e6));
  for (int i = 0; i < 1000; ++i) shallow.insert(data.uniform(0.0, 1e6));
  ASSERT_GT(deep.snapshot().levels.size(), shallow.snapshot().levels.size());
  QuantileSketch grown = shallow;
  grown.merge(deep);
  EXPECT_EQ(grown.count(), deep.count() + shallow.count());
  EXPECT_EQ(grown.retained(), level_items(grown.snapshot()));
  deep.merge(shallow);
  EXPECT_EQ(deep.retained(), level_items(deep.snapshot()));
}

TEST(StreamingHistogram, SnapshotRestoreIsExact) {
  StreamingHistogram original;
  util::Rng data(22);
  for (int i = 0; i < 20000; ++i) original.insert(data.lognormal(4.0, 1.5));
  original.insert(0.0);  // populate the zero bucket too
  StreamingHistogram resumed =
      StreamingHistogram::restore(original.snapshot());
  EXPECT_EQ(resumed.count(), original.count());
  EXPECT_EQ(resumed.buckets(), original.buckets());
  EXPECT_DOUBLE_EQ(resumed.sum(), original.sum());
  for (int i = 0; i <= 200; ++i) {
    const double q = static_cast<double>(i) / 200.0;
    EXPECT_DOUBLE_EQ(resumed.quantile(q), original.quantile(q)) << "q=" << q;
  }
}

TEST(StreamingHistogram, RestoreRejectsCountMismatch) {
  StreamingHistogram hist;
  for (int i = 1; i <= 100; ++i) hist.insert(static_cast<double>(i));
  auto snapshot = hist.snapshot();
  snapshot.count += 5;  // buckets no longer account for every insert
  EXPECT_THROW(StreamingHistogram::restore(snapshot), InvalidArgument);
}

// 64-bit FNV-1a over every field of a histogram snapshot; doubles are
// hashed by their bit patterns.
std::uint64_t fnv1a(const StreamingHistogram::Snapshot& s) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffu;
      h *= 1099511628211ULL;
    }
  };
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  mix(s.buckets.size());
  for (const auto& [index, n] : s.buckets) {
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(index)));
    mix(n);
  }
  mix(s.zero_count);
  mix(s.count);
  mix(bits(s.sum));
  mix(bits(s.min));
  mix(bits(s.max));
  return h;
}

TEST(StreamingHistogram, CollapsedStateIsPinned) {
  // The default cap of 2048 buckets is never reached by the serve
  // workload, so this pins the collapse rule on its own: at 16 buckets
  // every shard collapses while it is fed, the first shard goes through
  // snapshot/restore midway, and the merges collapse again.
  StreamingHistogram::Options options;
  options.max_buckets = 16;
  util::Rng data(61);
  StreamingHistogram merged(options);
  for (int shard = 0; shard < 3; ++shard) {
    StreamingHistogram hist(options);
    for (int i = 0; i < 5000; ++i) {
      hist.insert(data.bernoulli(0.05) ? 0.0
                                       : data.lognormal(2.0 * shard, 2.0));
      if (shard == 0 && i == 2500) {
        hist = StreamingHistogram::restore(hist.snapshot());
      }
    }
    EXPECT_EQ(hist.snapshot().buckets.size(), 16u);
    merged.merge(hist);
  }
  const auto snap = merged.snapshot();
  EXPECT_EQ(snap.count, 15000u);
  ASSERT_EQ(snap.buckets.size(), 16u);
  EXPECT_GT(snap.zero_count, 0u);
  EXPECT_EQ(fnv1a(snap), 0x02b5d7f4818101bfULL);
}

TEST(StreamingHistogram, RestoreRejectsDuplicateBucket) {
  StreamingHistogram hist;
  for (int i = 1; i <= 100; ++i) hist.insert(static_cast<double>(i));
  auto snapshot = hist.snapshot();
  ASSERT_GE(snapshot.buckets.size(), 2u);
  snapshot.buckets[1].first = snapshot.buckets[0].first;
  EXPECT_THROW((void)StreamingHistogram::restore(snapshot), InvalidArgument);
}

TEST(StreamingHistogram, RestoreAcceptsBucketsInAnyOrder) {
  StreamingHistogram hist;
  util::Rng data(62);
  for (int i = 0; i < 5000; ++i) hist.insert(data.lognormal(4.0, 2.0));
  const auto sorted = hist.snapshot();
  auto shuffled = sorted;
  data.shuffle(shuffled.buckets);
  ASSERT_NE(shuffled.buckets, sorted.buckets);
  const auto restored = StreamingHistogram::restore(shuffled).snapshot();
  EXPECT_EQ(restored.buckets, sorted.buckets);
  EXPECT_EQ(fnv1a(restored), fnv1a(sorted));
}

}  // namespace
}  // namespace lumos::stats
