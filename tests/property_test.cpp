// Property-based tests (parameterized gtest): invariants that must hold
// across randomised inputs and configuration grids.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "sim/metrics.hpp"
#include "sim/profile.hpp"
#include "sim/simulator.hpp"
#include "stats/descriptive.hpp"
#include "stats/ecdf.hpp"
#include "synth/generator.hpp"
#include "trace/swf.hpp"
#include "util/rng.hpp"

namespace lumos {
namespace {

// ------------------------------------------------ ECDF inverse property ---

class EcdfProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EcdfProperty, QuantileIsLeftInverseOfCdf) {
  util::Rng rng(GetParam());
  std::vector<double> xs(500);
  for (auto& x : xs) x = rng.lognormal(3.0, 2.0);
  const stats::Ecdf f(xs);
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double x = f.quantile(q);
    // F(quantile(q)) >= q within one sample step.
    EXPECT_GE(f(x) + 1.0 / static_cast<double>(xs.size()) + 1e-12, q);
  }
}

TEST_P(EcdfProperty, CdfIsMonotone) {
  util::Rng rng(GetParam() ^ 0x5a5a);
  std::vector<double> xs(300);
  for (auto& x : xs) x = rng.normal(0.0, 10.0);
  const stats::Ecdf f(xs);
  double prev = -1.0;
  for (double x = -40.0; x <= 40.0; x += 0.5) {
    const double v = f(x);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcdfProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ----------------------------------- profile vs brute-force reference -----

class ProfileProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProfileProperty, MatchesBruteForceFreeAt) {
  util::Rng rng(GetParam());
  constexpr std::uint64_t kCapacity = 64;
  sim::ResourceProfile profile(0.0, kCapacity);
  struct Res {
    double start, end;
    std::uint64_t cores;
  };
  std::vector<Res> reservations;
  for (int i = 0; i < 40; ++i) {
    Res r;
    r.start = rng.uniform(0.0, 1000.0);
    r.end = r.start + rng.uniform(1.0, 300.0);
    r.cores = rng.uniform_index(16) + 1;
    // Only commit feasible reservations (like the simulator does).
    bool feasible = true;
    for (double t : {r.start, (r.start + r.end) / 2.0}) {
      std::uint64_t used = r.cores;
      for (const auto& o : reservations) {
        if (o.start <= t && t < o.end) used += o.cores;
      }
      feasible = feasible && used <= kCapacity;
    }
    if (!feasible) continue;
    profile.reserve(r.start, r.end, r.cores);
    reservations.push_back(r);
  }
  // Spot-check free_at against a brute-force sum at random times.
  for (int i = 0; i < 200; ++i) {
    const double t = rng.uniform(0.0, 1400.0);
    std::uint64_t used = 0;
    for (const auto& r : reservations) {
      if (r.start <= t && t < r.end) used += r.cores;
    }
    const std::uint64_t expected =
        used > kCapacity ? 0 : kCapacity - used;
    EXPECT_EQ(profile.free_at(t), expected) << "t=" << t;
  }
}

TEST_P(ProfileProperty, EarliestStartIsFeasibleAndEarliest) {
  util::Rng rng(GetParam() ^ 0xbeef);
  constexpr std::uint64_t kCapacity = 32;
  sim::ResourceProfile profile(0.0, kCapacity);
  for (int i = 0; i < 25; ++i) {
    const double start = rng.uniform(0.0, 500.0);
    profile.reserve(start, start + rng.uniform(1.0, 200.0),
                    rng.uniform_index(kCapacity) + 1);
  }
  const std::uint64_t cores = rng.uniform_index(kCapacity) + 1;
  const double duration = rng.uniform(1.0, 100.0);
  const double est = profile.earliest_start(0.0, duration, cores);
  ASSERT_LT(est, sim::kTimeInfinity);
  // Feasible over the whole window.
  for (double f : {0.0, 0.25, 0.5, 0.75, 0.999}) {
    EXPECT_GE(profile.free_at(est + f * duration), cores);
  }
  // No strictly earlier grid point works for the whole window.
  for (double cand = 0.0; cand < est - 1e-9; cand += est / 7.0 + 1e-3) {
    bool ok = true;
    for (double f = 0.0; f <= 1.0; f += 0.05) {
      ok = ok && profile.free_at(cand + f * duration) >= cores;
    }
    EXPECT_FALSE(ok) << "earlier feasible start at " << cand;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfileProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// -------------------------------- simulator invariants over config grid ---

struct SimGridParam {
  sim::PolicyKind policy;
  sim::BackfillKind backfill;
};

void PrintTo(const SimGridParam& p, std::ostream* os) {
  *os << to_string(p.policy) << ' ' << to_string(p.backfill);
}

class SimulatorInvariants : public ::testing::TestWithParam<SimGridParam> {};

TEST_P(SimulatorInvariants, HoldOnSyntheticWorkload) {
  synth::GeneratorOptions gen_options;
  gen_options.seed = 99;
  gen_options.duration_days = 2.0;
  const auto trace = synth::generate_system("Theta", gen_options);

  sim::SimConfig config;
  config.policy = GetParam().policy;
  config.backfill.kind = GetParam().backfill;
  const auto result = sim::simulate(trace, config);

  // 1. Every job starts (capacity is ample) and never before submission.
  struct Event {
    double time;
    std::int64_t delta;
  };
  std::vector<Event> events;
  std::size_t started = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& outcome = result.outcomes[i];
    if (!outcome.started()) continue;
    ++started;
    EXPECT_GE(outcome.start_time, trace[i].submit_time - 1e-6);
    events.push_back({outcome.start_time,
                      static_cast<std::int64_t>(trace[i].cores)});
    events.push_back({outcome.start_time + trace[i].run_time,
                      -static_cast<std::int64_t>(trace[i].cores)});
  }
  EXPECT_EQ(started + result.skipped_oversized, trace.size());

  // 2. Aggregate capacity is never exceeded (releases before claims at
  // equal timestamps, as the simulator frees cores first).
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.delta < b.delta;
  });
  std::int64_t in_use = 0;
  const auto capacity =
      static_cast<std::int64_t>(trace.spec().primary_capacity());
  for (const auto& e : events) {
    in_use += e.delta;
    EXPECT_LE(in_use, capacity);
    EXPECT_GE(in_use, 0);
  }

  // 3. Metrics are finite and consistent.
  const auto metrics = sim::compute_metrics(trace, result);
  EXPECT_EQ(metrics.jobs, started);
  EXPECT_GE(metrics.avg_bounded_slowdown, 1.0);
  EXPECT_GE(metrics.utilization, 0.0);
  EXPECT_LE(metrics.utilization, 1.0 + 1e-9);

  // 4. Strict EASY under FCFS never violates its reservations.
  if (GetParam().policy == sim::PolicyKind::Fcfs &&
      GetParam().backfill == sim::BackfillKind::Easy) {
    EXPECT_EQ(metrics.violated_jobs, 0u);
  }
}

std::string grid_name(
    const ::testing::TestParamInfo<SimGridParam>& info) {
  return std::string(to_string(info.param.policy)) + "_" +
         std::string(to_string(info.param.backfill).substr(0, 4)) +
         std::to_string(info.index);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimulatorInvariants,
    ::testing::Values(
        SimGridParam{sim::PolicyKind::Fcfs, sim::BackfillKind::None},
        SimGridParam{sim::PolicyKind::Fcfs, sim::BackfillKind::Easy},
        SimGridParam{sim::PolicyKind::Fcfs, sim::BackfillKind::Conservative},
        SimGridParam{sim::PolicyKind::Fcfs, sim::BackfillKind::Relaxed},
        SimGridParam{sim::PolicyKind::Fcfs,
                     sim::BackfillKind::AdaptiveRelaxed},
        SimGridParam{sim::PolicyKind::Sjf, sim::BackfillKind::Easy},
        SimGridParam{sim::PolicyKind::Wfp3, sim::BackfillKind::Easy},
        SimGridParam{sim::PolicyKind::Unicep, sim::BackfillKind::Relaxed},
        SimGridParam{sim::PolicyKind::Saf,
                     sim::BackfillKind::AdaptiveRelaxed}),
    grid_name);

// --------------------------------- generator invariants over seed sweep ---

class GeneratorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorProperty, PhysicalConsistency) {
  synth::GeneratorOptions options;
  options.seed = GetParam();
  options.duration_days = 1.5;
  for (const char* system : {"Mira", "Philly"}) {
    const auto trace = synth::generate_system(system, options);
    EXPECT_TRUE(trace.is_sorted_by_submit());
    const double horizon = 1.5 * 86400.0;
    for (const auto& j : trace.jobs()) {
      EXPECT_GE(j.submit_time, 0.0);
      EXPECT_LT(j.submit_time, horizon);
      EXPECT_GT(j.run_time, 0.0);
      EXPECT_GE(j.wait_time, 0.0);
      EXPECT_GE(j.cores, 1u);
      EXPECT_LE(j.cores, trace.spec().primary_capacity());
      if (j.has_requested_time()) {
        EXPECT_GE(j.requested_time * 1.0001, j.run_time);
      }
    }
  }
}

TEST_P(GeneratorProperty, StatusFractionsBounded) {
  synth::GeneratorOptions options;
  options.seed = GetParam();
  options.duration_days = 2.0;
  const auto trace = synth::generate_system("BlueWaters", options);
  std::array<std::size_t, 3> counts{};
  for (const auto& j : trace.jobs()) {
    counts[static_cast<std::size_t>(j.status)]++;
  }
  const double n = static_cast<double>(trace.size());
  EXPECT_GT(counts[0] / n, 0.4);   // Passed majority
  EXPECT_GT(counts[2] / n, 0.05);  // Killed present
  EXPECT_GT(counts[1], 0u);        // Failed present
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorProperty,
                         ::testing::Values(101, 202, 303, 404, 505));

// ------------------------------------- lossless SWF write -> read trip ---

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

class SwfRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

// Every time field survives write_swf -> read_swf bit for bit, including
// submit times late in a 120-day window (a fixed 6-significant-digit
// writer rounds those to the nearest 100 s).
TEST_P(SwfRoundTrip, TimesAreBitEqual) {
  synth::GeneratorOptions options;
  options.seed = GetParam();
  options.duration_days = 120.0;
  for (const char* system : {"Theta", "BlueWaters"}) {
    const auto original = synth::generate_system(system, options);
    std::stringstream swf;
    trace::write_swf(swf, original);
    const auto back = trace::read_swf(swf, original.spec());
    ASSERT_EQ(back.size(), original.size()) << system;
    for (std::size_t i = 0; i < back.size(); ++i) {
      const auto& a = original[i];
      const auto& b = back[i];
      EXPECT_EQ(bits(b.submit_time), bits(a.submit_time)) << system << i;
      EXPECT_EQ(bits(b.wait_time), bits(a.wait_time)) << system << i;
      EXPECT_EQ(bits(b.run_time), bits(a.run_time)) << system << i;
      EXPECT_EQ(bits(b.requested_time), bits(a.requested_time))
          << system << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwfRoundTrip, ::testing::Values(7, 2026));

}  // namespace
}  // namespace lumos
