// Robustness sweep: generator and analysis invariants that must hold for
// EVERY system at seeds other than the default — guarding the shape
// reproduction against seed overfitting (TEST_P over system x seed).
#include <gtest/gtest.h>

#include "analysis/arrival.hpp"
#include "analysis/failure.hpp"
#include "analysis/geometry.hpp"
#include "analysis/user_behavior.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "synth/generator.hpp"
#include "trace/validate.hpp"

namespace lumos {
namespace {

struct Param {
  const char* system;
  std::uint64_t seed;
};

// Names the parameter in readable text; gtest's default is a byte dump of
// the struct, which embeds the run-dependent address of `system`.
void PrintTo(const Param& p, std::ostream* os) {
  *os << p.system << " seed " << p.seed;
}

class SystemSweep : public ::testing::TestWithParam<Param> {
 protected:
  trace::Trace make(double days = 5.0) const {
    synth::GeneratorOptions options;
    options.seed = GetParam().seed;
    options.duration_days = days;
    return synth::generate_system(GetParam().system, options);
  }
};

TEST_P(SystemSweep, TraceValidatesAndIsNonTrivial) {
  const auto t = make();
  EXPECT_GT(t.size(), 200u);
  EXPECT_GT(t.user_count(), 20u);
  const auto report = trace::validate(t);
  EXPECT_TRUE(report.consistent()) << report.to_string();
}

TEST_P(SystemSweep, StatusMixStaysInPaperBand) {
  const auto t = make();
  const auto f = analysis::analyze_failures(t);
  const double passed = f.overall.job_fraction(trace::JobStatus::Passed);
  // Paper: Passed <70% everywhere but still the majority class band.
  EXPECT_GT(passed, 0.45) << GetParam().system;
  EXPECT_LT(passed, 0.85) << GetParam().system;
  // Killed jobs always cost more core-hours than their count share.
  EXPECT_GT(f.overall.core_hour_fraction(trace::JobStatus::Killed),
            f.overall.job_fraction(trace::JobStatus::Killed));
  // Failed jobs always cost less (they die early).
  EXPECT_LT(f.overall.core_hour_fraction(trace::JobStatus::Failed),
            f.overall.job_fraction(trace::JobStatus::Failed));
}

TEST_P(SystemSweep, RuntimePassRateFallsWithLength) {
  const auto t = make(10.0);
  const auto f = analysis::analyze_failures(t);
  // The trend is only meaningful with a populated Long category (small
  // HPC samples may contain a handful of >1-day jobs).
  const auto& long_tally =
      f.by_length[static_cast<std::size_t>(trace::LengthCategory::Long)];
  if (long_tally.total_jobs() < 15) {
    GTEST_SKIP() << "too few long jobs for a stable trend";
  }
  EXPECT_LT(f.pass_rate_length_trend, 0.0) << GetParam().system;
}

TEST_P(SystemSweep, RepetitionIsStrong) {
  const auto t = make(6.0);
  const auto r = analysis::analyze_repetition(t, 40);
  if (r.representative_users < 5) GTEST_SKIP() << "too few heavy users";
  EXPECT_GT(r.cumulative_share[9], 0.6) << GetParam().system;
  // Monotone cumulative coverage.
  for (int k = 1; k < 10; ++k) {
    EXPECT_GE(r.cumulative_share[k] + 1e-12, r.cumulative_share[k - 1]);
  }
}

TEST_P(SystemSweep, EasyBackfillingBeatsNone) {
  const auto t = make(3.0);
  sim::SimConfig none;
  none.backfill.kind = sim::BackfillKind::None;
  sim::SimConfig easy;
  easy.backfill.kind = sim::BackfillKind::Easy;
  const auto m_none = sim::compute_metrics(t, sim::simulate(t, none));
  const auto m_easy = sim::compute_metrics(t, sim::simulate(t, easy));
  // Backfilling never hurts average wait on these workloads (and there is
  // always something to backfill at HPC/DL load levels).
  EXPECT_LE(m_easy.avg_wait, m_none.avg_wait * 1.02) << GetParam().system;
  EXPECT_EQ(m_easy.jobs + 0, m_none.jobs);
}

TEST_P(SystemSweep, HourlyProfileCoversAllHours) {
  const auto t = make(6.0);
  const auto a = analysis::analyze_arrivals(t);
  double total = 0.0;
  for (double h : a.hourly) total += h;
  EXPECT_NEAR(total, static_cast<double>(t.size()), 0.5);
  EXPECT_GT(a.peak_ratio, 1.0);
}

std::string sweep_name(const ::testing::TestParamInfo<Param>& info) {
  return std::string(info.param.system) + "_s" +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, SystemSweep,
    ::testing::Values(Param{"BlueWaters", 7}, Param{"Mira", 7},
                      Param{"Theta", 7}, Param{"Philly", 7},
                      Param{"Helios", 7}, Param{"BlueWaters", 2026},
                      Param{"Mira", 2026}, Param{"Theta", 2026},
                      Param{"Philly", 2026}, Param{"Helios", 2026}),
    sweep_name);

}  // namespace
}  // namespace lumos
