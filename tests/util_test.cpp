// Unit tests for the util substrate: rng, strings, csv, time, tables,
// thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "util/backoff.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/time_util.hpp"

namespace lumos::util {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanApproximatelyHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform_index(17), 17u);
  }
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, LognormalMedian) {
  Rng rng(17);
  std::vector<double> xs(40001);
  for (auto& x : xs) x = rng.lognormal(std::log(100.0), 1.0);
  std::nth_element(xs.begin(), xs.begin() + 20000, xs.end());
  EXPECT_NEAR(xs[20000], 100.0, 5.0);
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.25);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, ParetoAtLeastScale) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(31);
  const std::vector<double> w{1.0, 3.0, 0.0, 6.0};
  std::array<int, 4> counts{};
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[rng.categorical(w)]++;
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng rng(37);
  Rng child = rng.split();
  EXPECT_NE(rng.next(), child.next());
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(41);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(AliasTable, MatchesWeights) {
  Rng rng(43);
  const std::vector<double> w{5.0, 1.0, 4.0};
  AliasTable table(w);
  std::array<int, 3> counts{};
  const int n = 200000;
  for (int i = 0; i < n; ++i) counts[table.sample(rng)]++;
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.5, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.4, 0.01);
}

TEST(AliasTable, RejectsInvalidWeights) {
  EXPECT_THROW(AliasTable(std::vector<double>{}), InvalidArgument);
  EXPECT_THROW(AliasTable(std::vector<double>{0.0, 0.0}), InvalidArgument);
  EXPECT_THROW(AliasTable(std::vector<double>{-1.0, 2.0}), InvalidArgument);
}

// ------------------------------------------------------------- strings ---

TEST(StringUtil, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
}

TEST(StringUtil, ParseDouble) {
  EXPECT_DOUBLE_EQ(*parse_double("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(*parse_double(" -1e3 "), -1000.0);
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("1.5x").has_value());
  EXPECT_FALSE(parse_double("").has_value());
}

TEST(StringUtil, ParseInt) {
  EXPECT_EQ(*parse_int("42"), 42);
  EXPECT_EQ(*parse_int("-7"), -7);
  EXPECT_FALSE(parse_int("4.2").has_value());
}

TEST(StringUtil, Format) {
  EXPECT_EQ(format("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(format("%.2f", 1.005), "1.00");
}

TEST(StringUtil, ToLowerAndStartsWith) {
  EXPECT_EQ(to_lower("MiRa"), "mira");
  EXPECT_TRUE(starts_with("theta-gpu", "theta"));
  EXPECT_FALSE(starts_with("a", "ab"));
}

// ----------------------------------------------------------------- csv ---

TEST(Csv, RoundTripWithQuoting) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"a", "with,comma", "with\"quote", "multi\nline"});
  std::istringstream in(out.str());
  CsvReader reader(in, ',', /*has_header=*/false);
  CsvRow row;
  ASSERT_TRUE(reader.next(row));
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[1], "with,comma");
  EXPECT_EQ(row[2], "with\"quote");
  EXPECT_EQ(row[3], "multi\nline");
  EXPECT_FALSE(reader.next(row));
}

TEST(Csv, HeaderLookup) {
  std::istringstream in("id,name,value\n1,x,2.5\n");
  CsvReader reader(in);
  EXPECT_EQ(*reader.column("name"), 1u);
  EXPECT_FALSE(reader.column("missing").has_value());
  CsvRow row;
  ASSERT_TRUE(reader.next(row));
  EXPECT_EQ(row[*reader.column("value")], "2.5");
}

TEST(Csv, HandlesCrLf) {
  std::istringstream in("a,b\r\n1,2\r\n");
  CsvReader reader(in);
  CsvRow row;
  ASSERT_TRUE(reader.next(row));
  EXPECT_EQ(row[1], "2");
}

// ---------------------------------------------------------------- time ---

TEST(TimeUtil, HourOfDayRespectsOffset) {
  // Unix epoch is midnight UTC; -6h offset makes it 18:00 local.
  EXPECT_EQ(hour_of_day(0.0, 0, 0.0), 0);
  EXPECT_EQ(hour_of_day(0.0, 0, -6.0), 18);
  EXPECT_EQ(hour_of_day(3600.0 * 5, 0, 0.0), 5);
}

TEST(TimeUtil, DayOfWeek) {
  // 1970-01-01 was a Thursday (index 3 with Monday = 0).
  EXPECT_EQ(day_of_week(0.0, 0, 0.0), 3);
  EXPECT_EQ(day_of_week(4 * kDay, 0, 0.0), 0);  // Monday
}

TEST(TimeUtil, FormatDuration) {
  EXPECT_EQ(format_duration(30.0), "30s");
  EXPECT_EQ(format_duration(90.0), "1.5m");
  EXPECT_EQ(format_duration(5400.0), "1.5h");
  EXPECT_EQ(format_duration(2.0 * kDay), "2.0d");
}

// --------------------------------------------------------------- table ---

TEST(TextTable, AlignsAndPads) {
  TextTable t({"a", "bb"});
  t.add_row({"xxx"});
  t.add_row({"y", "zzz"});
  const auto s = t.render();
  EXPECT_NE(s.find("a    bb"), std::string::npos);
  EXPECT_NE(s.find("xxx"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TableHelpers, Formats) {
  EXPECT_EQ(percent(0.1234), "12.3%");
  EXPECT_EQ(fixed(2.5, 1), "2.5");
  EXPECT_EQ(with_commas(1234567), "1,234,567");
  EXPECT_EQ(with_commas(-1000), "-1,000");
}

// --------------------------------------------------------- thread pool ---

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(0, 100, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 10,
                        [](std::size_t i) {
                          if (i == 5) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(5, 5, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, PropagatesLowestIndexExceptionDeterministically) {
  // Several chunks throw; the surfaced exception must always be the one
  // from the lowest-index chunk, independent of worker scheduling.
  ThreadPool pool(2);
  for (int round = 0; round < 25; ++round) {
    std::string caught;
    try {
      // Range 0..8 with a 2-thread pool gives 8 single-index chunks, so
      // indices 3 and 6 throw from different chunks.
      pool.parallel_for(0, 8, [](std::size_t i) {
        if (i == 3 || i == 6) {
          throw std::runtime_error("boom@" + std::to_string(i));
        }
      });
      FAIL() << "parallel_for swallowed the exception";
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    EXPECT_EQ(caught, "boom@3");
  }
}

TEST(ThreadPool, ReusableAfterBodyThrows) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 8, [](std::size_t) {
        throw std::runtime_error("boom");
      }),
      std::runtime_error);
  // Every chunk ran to completion (exceptions are collected, not leaked
  // into workers), and the pool still services new work.
  std::vector<std::atomic<int>> hits(40);
  pool.parallel_for(0, 40, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

// ------------------------------------------------------------ backoff ----

TEST(Backoff, DoublesFromBaseAndCaps) {
  EXPECT_DOUBLE_EQ(backoff_delay_seconds(0.05, 1.0, 1), 0.05);
  EXPECT_DOUBLE_EQ(backoff_delay_seconds(0.05, 1.0, 2), 0.1);
  EXPECT_DOUBLE_EQ(backoff_delay_seconds(0.05, 1.0, 3), 0.2);
  EXPECT_DOUBLE_EQ(backoff_delay_seconds(0.05, 1.0, 4), 0.4);
  EXPECT_DOUBLE_EQ(backoff_delay_seconds(0.05, 1.0, 5), 0.8);
  EXPECT_DOUBLE_EQ(backoff_delay_seconds(0.05, 1.0, 6), 1.0);
  // The doubling loop saturates at the cap instead of overflowing, so an
  // arbitrarily late retry still gets a finite, capped delay.
  EXPECT_DOUBLE_EQ(backoff_delay_seconds(0.05, 1.0, 4000), 1.0);
  EXPECT_DOUBLE_EQ(backoff_delay_seconds(0.5, 0.3, 1), 0.3);  // base > cap
}

TEST(Backoff, RetryIndexIsOneBased) {
  EXPECT_THROW((void)backoff_delay_seconds(0.05, 1.0, 0), InvalidArgument);
}

// ---------------------------------------------------------- Rng state ----

TEST(Rng, StateRoundTripReproducesStreamExactly) {
  Rng original(91);
  // Burn a mixed prefix, ending on normal() so the Box–Muller cache is
  // populated — the snapshot must carry that cached value too.
  for (int i = 0; i < 37; ++i) original.next();
  (void)original.normal();
  Rng resumed(0);
  resumed.set_state(original.state());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(resumed.next(), original.next()) << "draw " << i;
  }
  // Exact equality, not near: normal() consumes the cache first and the
  // two streams must stay in lock-step through it.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(resumed.normal(), original.normal()) << "normal " << i;
  }
}

}  // namespace
}  // namespace lumos::util
