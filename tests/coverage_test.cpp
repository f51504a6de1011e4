// Additional edge-case and file-IO coverage across modules.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/lumos.hpp"
#include "stats/kde.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace lumos {
namespace {

// ------------------------------------------------------------- logging ---

TEST(Logging, LevelGatesMessages) {
  const auto old = util::log_level();
  util::set_log_level(util::LogLevel::Error);
  EXPECT_EQ(util::log_level(), util::LogLevel::Error);
  LUMOS_INFO << "should be suppressed (no crash)";
  util::set_log_level(util::LogLevel::Off);
  LUMOS_ERROR << "also suppressed";
  util::set_log_level(old);
}

// ----------------------------------------------------------- stats edge ---

TEST(EcdfEdge, SinglePointCurve) {
  const stats::Ecdf f(std::vector<double>{42.0});
  const auto curve = f.curve(1);
  ASSERT_EQ(curve.size(), 1u);
  EXPECT_DOUBLE_EQ(curve[0].first, 42.0);
  EXPECT_DOUBLE_EQ(f.quantile(0.37), 42.0);
}

TEST(KdeEdge, ConstantSampleHasFallbackBandwidth) {
  const std::vector<double> xs{5.0, 5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(stats::scott_bandwidth(xs), 1.0);
  const auto v = stats::violin_log(xs, 8);
  EXPECT_EQ(v.count, 4u);
  EXPECT_GT(v.density[0], 0.0);
}

// ----------------------------------------------------------- trace edge ---

TEST(TraceEdge, EmptyWindowAndStats) {
  trace::Trace t(trace::theta_spec());
  EXPECT_TRUE(t.window(0.0, 100.0).empty());
  EXPECT_DOUBLE_EQ(t.end_time(), 0.0);
  EXPECT_EQ(t.user_count(), 0u);
  EXPECT_TRUE(t.interarrival_times().empty());
}

TEST(LumosCsvEdge, MissingColumnThrows) {
  std::istringstream in("id,user\n1,2\n");
  EXPECT_THROW(trace::read_lumos_csv(in, trace::theta_spec()),
               lumos::ParseError);
}

TEST(DlCsvEdge, UnknownStatusThrows) {
  const std::string csv =
      "job_id,user,vc,submit_time,queue_delay,run_time,gpus,status\n"
      "1,10,3,0,5,600,1,Exploded\n";
  std::istringstream in(csv);
  EXPECT_THROW(trace::read_dl_csv(in, trace::philly_spec()),
               lumos::ParseError);
}

TEST(SwfFileIo, RoundTripsThroughDisk) {
  const auto dir = std::filesystem::temp_directory_path() / "lumos_test";
  std::filesystem::create_directories(dir);
  const auto path = (dir / "tiny.swf").string();

  synth::GeneratorOptions options;
  options.duration_days = 0.5;
  options.max_jobs = 200;
  const auto original = synth::generate_system("Theta", options);
  trace::write_swf_file(path, original);
  const auto reloaded = trace::read_swf_file(path, original.spec());
  EXPECT_EQ(reloaded.size(), original.size());
  std::filesystem::remove_all(dir);
}

TEST(SwfFileIo, MissingFileThrows) {
  EXPECT_THROW(
      trace::read_swf_file("/nonexistent/path.swf", trace::theta_spec()),
      lumos::ParseError);
}

TEST(LumosCsvFileIo, RoundTripsThroughDisk) {
  const auto dir = std::filesystem::temp_directory_path() / "lumos_test2";
  std::filesystem::create_directories(dir);
  const auto path = (dir / "tiny.csv").string();
  synth::GeneratorOptions options;
  options.duration_days = 0.5;
  options.max_jobs = 100;
  const auto original = synth::generate_system("Philly", options);
  trace::write_lumos_csv_file(path, original);
  const auto reloaded =
      trace::read_lumos_csv_file(path, original.spec());
  ASSERT_EQ(reloaded.size(), original.size());
  EXPECT_EQ(reloaded[0].virtual_cluster, original[0].virtual_cluster);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------- sim edge ---

TEST(SimEdge, UnicepOrdersLikeWaitOverArea) {
  sim::PolicyJobView waited{0.0, 5000.0, 100.0, 8};
  sim::PolicyJobView fresh{0.0, 5.0, 100.0, 8};
  EXPECT_LT(sim::policy_score(sim::PolicyKind::Unicep, waited),
            sim::policy_score(sim::PolicyKind::Unicep, fresh));
}

TEST(SimEdge, ClusterReleaseOnUnknownPartitionIsNoop) {
  sim::Cluster c(10);
  c.release(5, 99);  // out of range: ignored
  EXPECT_EQ(c.free(0), 10u);
}

TEST(SimEdge, ZeroCoreJobTreatedAsOne) {
  trace::SystemSpec spec;
  spec.name = "Z";
  spec.cores = 4;
  trace::Trace t(spec);
  trace::Job j;
  j.cores = 0;
  j.run_time = 10;
  j.requested_time = 10;
  t.add(j);
  t.sort_by_submit();
  const auto r = sim::simulate(t, sim::SimConfig{});
  EXPECT_TRUE(r.outcomes[0].started());
}

// ------------------------------------------------------------ core edge ---

TEST(CoreEdge, EstimateSourceNames) {
  EXPECT_EQ(to_string(core::EstimateSource::UserRequest), "user-request");
  EXPECT_EQ(to_string(core::EstimateSource::Oracle), "oracle");
  EXPECT_EQ(to_string(core::EstimateSource::Last2), "last2");
  EXPECT_EQ(to_string(core::EstimateSource::Model), "gbrt");
}

TEST(CoreEdge, TakeawayRenderingMentionsVerdicts) {
  core::StudyOptions options;
  options.duration_days = 1.0;
  options.systems = {"Theta"};
  const core::CrossSystemStudy study(options);
  const auto text =
      core::render_takeaways(core::check_takeaways(study));
  EXPECT_NE(text.find("Takeaway 1"), std::string::npos);
  EXPECT_NE(text.find("Takeaway 8"), std::string::npos);
  EXPECT_NE(text.find("REPRODUCED"), std::string::npos);
}

// ----------------------------------------------------- generator patterns --

TEST(GeneratorPatterns, PhillyInvertedVsHeliosPeaked) {
  synth::GeneratorOptions options;
  options.duration_days = 6.0;
  const auto philly = synth::generate_system("Philly", options);
  const auto helios = synth::generate_system("Helios", options);
  const auto a_philly = analysis::analyze_arrivals(philly);
  const auto a_helios = analysis::analyze_arrivals(helios);
  // Philly submits *less* during business hours; Helios much more.
  EXPECT_LT(a_philly.business_hours_share, 0.42);
  EXPECT_GT(a_helios.business_hours_share, 0.5);
  EXPECT_GT(a_helios.peak_ratio, a_philly.peak_ratio);
}

TEST(GeneratorPatterns, WalltimeIsCoarse) {
  synth::GeneratorOptions options;
  options.duration_days = 2.0;
  const auto t = synth::generate_system("Mira", options);
  for (const auto& j : t.jobs()) {
    ASSERT_TRUE(j.has_requested_time());
    // Requests are rounded to 30-minute multiples.
    const double r = j.requested_time / 1800.0;
    EXPECT_NEAR(r, std::round(r), 1e-9);
  }
}

TEST(GeneratorPatterns, VirtualClustersStableForUser) {
  synth::GeneratorOptions options;
  options.duration_days = 2.0;
  const auto t = synth::generate_system("Philly", options);
  std::unordered_map<std::uint32_t, std::int32_t> vc_of_user;
  for (const auto& j : t.jobs()) {
    const auto [it, inserted] = vc_of_user.emplace(j.user, j.virtual_cluster);
    if (!inserted) {
      EXPECT_EQ(it->second, j.virtual_cluster);
    }
  }
}

// --------------------------------------------------------- report pieces --

TEST(ReportPieces, HourlyTableHas24Rows) {
  core::StudyOptions options;
  options.duration_days = 1.0;
  options.systems = {"Helios"};
  const core::CrossSystemStudy study(options);
  const auto text = analysis::render_hourly(study.arrivals());
  // Header + separator + 24 hour rows.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 26);
}

TEST(ReportPieces, RuntimeCdfQuantilesOrdered) {
  core::StudyOptions options;
  options.duration_days = 1.0;
  options.systems = {"Theta"};
  const core::CrossSystemStudy study(options);
  const auto geo = study.geometries();
  double prev = 0.0;
  for (int i = 1; i <= 9; ++i) {
    const double q = geo[0].runtime_cdf.quantile(i / 10.0);
    EXPECT_GE(q, prev);
    prev = q;
  }
}

// --------------------------------------------------------- backfill study --

TEST(BackfillStudyEdge, AblationShapesDiffer) {
  core::StudyOptions options;
  options.duration_days = 3.0;
  options.systems = {"Theta"};
  const core::CrossSystemStudy study(options);
  const auto& trace = study.trace("Theta");
  core::BackfillStudyConfig quad;
  quad.adaptive_shape = sim::AdaptiveShape::Quadratic;
  core::BackfillStudyConfig sqrt_shape;
  sqrt_shape.adaptive_shape = sim::AdaptiveShape::Sqrt;
  const auto a = core::compare_backfill(trace, quad);
  const auto b = core::compare_backfill(trace, sqrt_shape);
  // The relaxed baseline is identical across shapes; the adaptive arms
  // make different decisions (scheduling is chaotic, so only per-decision
  // allowances — covered in sim_test — are monotone, not global counts).
  EXPECT_DOUBLE_EQ(a.relaxed.avg_wait, b.relaxed.avg_wait);
  EXPECT_GT(a.adaptive.jobs, 0u);
  EXPECT_GT(b.adaptive.jobs, 0u);
  // Re-running a configuration reproduces it exactly (determinism).
  const auto a2 = core::compare_backfill(trace, quad);
  EXPECT_DOUBLE_EQ(a2.adaptive.avg_wait, a.adaptive.avg_wait);
  EXPECT_EQ(a2.adaptive.backfilled_jobs, a.adaptive.backfilled_jobs);
}

}  // namespace
}  // namespace lumos
