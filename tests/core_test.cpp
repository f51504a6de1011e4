// Tests for the core façade: study construction, takeaway checks, and the
// Table II backfill study.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <unistd.h>

#include "core/backfill_study.hpp"
#include "core/study.hpp"
#include "core/takeaways.hpp"
#include "util/error.hpp"

namespace lumos::core {
namespace {

StudyOptions small_options(std::vector<std::string> systems = {}) {
  StudyOptions options;
  options.seed = 5;
  options.duration_days = 2.0;
  options.systems = std::move(systems);
  return options;
}

TEST(Study, BuildsAllFiveByDefault) {
  const CrossSystemStudy study(small_options());
  EXPECT_EQ(study.traces().size(), 5u);
  EXPECT_EQ(study.trace("mira").spec().name, "Mira");
  EXPECT_EQ(study.trace("BlueWaters").spec().name, "BlueWaters");
}

TEST(Study, SubsetSelection) {
  const CrossSystemStudy study(small_options({"Theta", "Philly"}));
  EXPECT_EQ(study.traces().size(), 2u);
  EXPECT_THROW((void)study.trace("Mira"), InvalidArgument);
}

TEST(Study, UnknownSystemThrows) {
  EXPECT_THROW(CrossSystemStudy(small_options({"Summit"})), InvalidArgument);
}

TEST(Study, FromProvidedTraces) {
  CrossSystemStudy synth_study(small_options({"Theta"}));
  std::vector<trace::Trace> traces{synth_study.trace("Theta")};
  const CrossSystemStudy study(std::move(traces));
  EXPECT_EQ(study.traces().size(), 1u);
  EXPECT_THROW(CrossSystemStudy(std::vector<trace::Trace>{}),
               InvalidArgument);
}

TEST(Study, AnalysesCoverEverySystem) {
  const CrossSystemStudy study(small_options({"Theta", "Helios"}));
  EXPECT_EQ(study.geometries().size(), 2u);
  EXPECT_EQ(study.arrivals().size(), 2u);
  EXPECT_EQ(study.dominations().size(), 2u);
  EXPECT_EQ(study.utilizations().size(), 2u);
  EXPECT_EQ(study.waitings().size(), 2u);
  EXPECT_EQ(study.failures().size(), 2u);
  EXPECT_EQ(study.repetitions().size(), 2u);
  EXPECT_EQ(study.queue_behaviors().size(), 2u);
  EXPECT_EQ(study.user_statuses().size(), 2u);
}

TEST(Study, FullReportContainsEveryFigure) {
  const CrossSystemStudy study(small_options({"Theta"}));
  const auto report = study.full_report();
  for (const char* needle :
       {"Fig 1", "Fig 2", "Fig 3", "Fig 4", "Fig 5", "Fig 6", "Fig 7",
        "Fig 8", "Fig 9", "Fig 10", "Fig 11"}) {
    EXPECT_NE(report.find(needle), std::string::npos) << needle;
  }
}

// 64-bit FNV-1a, chained so several inputs fold into one digest.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 1469598103934665603ULL) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(Study, FullReportIsPinned) {
  // The exact report text and CSV export of a small five-system study,
  // recorded before full_report/export_csv were changed to compute each
  // analysis once. Any refactor of the study façade must keep both
  // digests; an intended output change re-records them here.
  const CrossSystemStudy study(small_options());
  EXPECT_EQ(fnv1a(study.full_report()), 0xaf11813b5f316ccfULL);

  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("lumos_study_pin_" + std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(dir);
  study.export_csv(dir.string());
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::uint64_t h = fnv1a("");
  for (const auto& path : files) {
    std::ifstream in(path, std::ios::binary);
    const std::string body{std::istreambuf_iterator<char>(in), {}};
    h = fnv1a(path.filename().string() + '\0', h);
    h = fnv1a(body + '\0', h);
  }
  fs::remove_all(dir);
  EXPECT_EQ(files.size(), 9u);
  EXPECT_EQ(h, 0x020da00d638fad7cULL);
}

TEST(Takeaways, ProducesEightChecks) {
  const CrossSystemStudy study(small_options());
  const auto checks = check_takeaways(study);
  ASSERT_EQ(checks.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(checks[i].number, static_cast<int>(i) + 1);
    EXPECT_FALSE(checks[i].claim.empty());
    EXPECT_FALSE(checks[i].evidence.empty());
  }
  EXPECT_FALSE(render_takeaways(checks).empty());
}

TEST(Takeaways, MissingSystemsReported) {
  const CrossSystemStudy study(small_options({"Theta"}));
  const auto checks = check_takeaways(study);
  // With only Theta, cross-system claims cannot hold.
  EXPECT_FALSE(checks[0].holds);
  EXPECT_EQ(checks[0].evidence, "missing systems");
}

TEST(BackfillStudy, ComparesBothConfigs) {
  const CrossSystemStudy study(small_options({"Theta"}));
  const auto cmp = compare_backfill(study.trace("Theta"));
  EXPECT_EQ(cmp.system, "Theta");
  EXPECT_GT(cmp.relaxed.jobs, 0u);
  EXPECT_EQ(cmp.relaxed.jobs, cmp.adaptive.jobs);
  EXPECT_GT(cmp.relaxed.utilization, 0.0);
}

TEST(BackfillStudy, SkipsTracesWithoutWalltime) {
  const CrossSystemStudy study(small_options({"Theta", "Philly"}));
  const auto rows = run_backfill_study(study.traces());
  ASSERT_EQ(rows.size(), 1u);  // Philly skipped (no walltime requests)
  EXPECT_EQ(rows[0].system, "Theta");
}

TEST(BackfillStudy, IdenticalAcrossThreadCounts) {
  // The study fans per-trace simulations out over a ThreadPool; Table II
  // must not depend on the worker count.
  const CrossSystemStudy study(small_options({"Theta", "BlueWaters"}));
  BackfillStudyConfig serial_config;
  serial_config.threads = 1;
  BackfillStudyConfig wide_config;
  wide_config.threads = 4;
  const auto serial = run_backfill_study(study.traces(), serial_config);
  const auto wide = run_backfill_study(study.traces(), wide_config);
  ASSERT_EQ(serial.size(), wide.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].system, wide[i].system);
    EXPECT_EQ(serial[i].relaxed.avg_wait, wide[i].relaxed.avg_wait);
    EXPECT_EQ(serial[i].adaptive.avg_wait, wide[i].adaptive.avg_wait);
    EXPECT_EQ(serial[i].relaxed.avg_bounded_slowdown,
              wide[i].relaxed.avg_bounded_slowdown);
    EXPECT_EQ(serial[i].adaptive.avg_bounded_slowdown,
              wide[i].adaptive.avg_bounded_slowdown);
    EXPECT_EQ(serial[i].relaxed.utilization, wide[i].relaxed.utilization);
    EXPECT_EQ(serial[i].adaptive.utilization, wide[i].adaptive.utilization);
  }
}

TEST(BackfillStudy, RenderShowsPaperColumns) {
  const CrossSystemStudy study(small_options({"Theta"}));
  const auto rows = run_backfill_study(study.traces());
  const auto text = render_backfill_study(rows);
  for (const char* needle : {"wait", "bsld", "util", "violation",
                             "Relaxed", "Adaptive", "Improved"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

}  // namespace
}  // namespace lumos::core
