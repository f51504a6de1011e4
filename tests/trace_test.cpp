// Unit tests for the trace model, parsers and validation.
#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "trace/csv_formats.hpp"
#include "trace/swf.hpp"
#include "trace/system_spec.hpp"
#include "trace/trace.hpp"
#include "trace/validate.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace lumos::trace {
namespace {

Job make_job(double submit, double wait, double run, std::uint32_t cores,
             JobStatus status = JobStatus::Passed, std::uint32_t user = 0) {
  Job j;
  j.submit_time = submit;
  j.wait_time = wait;
  j.run_time = run;
  j.cores = cores;
  j.nodes = cores;
  j.status = status;
  j.user = user;
  return j;
}

// ----------------------------------------------------------------- Job ---

TEST(Job, DerivedQuantities) {
  const Job j = make_job(100.0, 50.0, 200.0, 4);
  EXPECT_DOUBLE_EQ(j.start_time(), 150.0);
  EXPECT_DOUBLE_EQ(j.end_time(), 350.0);
  EXPECT_DOUBLE_EQ(j.turnaround(), 250.0);
  EXPECT_DOUBLE_EQ(j.core_hours(), 4.0 * 200.0 / 3600.0);
}

TEST(Job, BoundedSlowdownUsesBound) {
  Job j = make_job(0.0, 90.0, 5.0, 1);  // short job: bound kicks in
  EXPECT_DOUBLE_EQ(j.bounded_slowdown(10.0), 95.0 / 10.0);
  j.run_time = 100.0;
  EXPECT_DOUBLE_EQ(j.bounded_slowdown(10.0), 190.0 / 100.0);
  j.wait_time = 0.0;
  EXPECT_DOUBLE_EQ(j.bounded_slowdown(10.0), 1.0);  // floored at 1
}

TEST(Job, RequestedTimeSentinel) {
  Job j = make_job(0, 0, 10, 1);
  EXPECT_FALSE(j.has_requested_time());
  j.requested_time = 3600.0;
  EXPECT_TRUE(j.has_requested_time());
}

TEST(JobStatus, Names) {
  EXPECT_EQ(to_string(JobStatus::Passed), "Passed");
  EXPECT_EQ(to_string(JobStatus::Failed), "Failed");
  EXPECT_EQ(to_string(JobStatus::Killed), "Killed");
}

// ---------------------------------------------------------- SystemSpec ---

TEST(SystemSpec, FiveSystemsHaveTableOneCapacities) {
  EXPECT_EQ(mira_spec().nodes, 49152u);
  EXPECT_EQ(mira_spec().cores, 786432u);
  EXPECT_EQ(theta_spec().cores, 281088u);
  EXPECT_EQ(blue_waters_spec().gpus, 4228u);
  EXPECT_EQ(philly_spec().gpus, 2490u);
  EXPECT_EQ(philly_spec().virtual_clusters, 14);
  EXPECT_EQ(helios_spec().gpus, 6416u);
  EXPECT_EQ(all_system_specs().size(), 5u);
}

TEST(SystemSpec, PrimaryCapacityFollowsKind) {
  EXPECT_EQ(mira_spec().primary_capacity(), 786432u);
  EXPECT_EQ(philly_spec().primary_capacity(), 2490u);
}

TEST(SystemSpec, HpcSizeCategoriesUseFractions) {
  const auto spec = mira_spec();  // capacity 786432
  EXPECT_EQ(spec.size_category(1000), SizeCategory::Small);
  EXPECT_EQ(spec.size_category(100000), SizeCategory::Middle);  // ~12.7%
  EXPECT_EQ(spec.size_category(300000), SizeCategory::Large);   // ~38%
}

TEST(SystemSpec, DlSizeCategoriesUseGpuCounts) {
  const auto spec = philly_spec();
  EXPECT_EQ(spec.size_category(1), SizeCategory::Small);
  EXPECT_EQ(spec.size_category(8), SizeCategory::Middle);
  EXPECT_EQ(spec.size_category(9), SizeCategory::Large);
}

TEST(SystemSpec, MinimalCategoryOptIn) {
  const auto spec = philly_spec();
  EXPECT_EQ(spec.size_category(1, true), SizeCategory::Minimal);
  EXPECT_EQ(spec.size_category(1, false), SizeCategory::Small);
}

TEST(SystemSpec, LengthCategories) {
  EXPECT_EQ(SystemSpec::length_category(30.0), LengthCategory::Short);
  EXPECT_EQ(SystemSpec::length_category(30.0, true), LengthCategory::Minimal);
  EXPECT_EQ(SystemSpec::length_category(7200.0), LengthCategory::Middle);
  EXPECT_EQ(SystemSpec::length_category(2.0 * 86400.0), LengthCategory::Long);
}

TEST(SystemSpec, FindByNameAndAlias) {
  EXPECT_TRUE(find_system_spec("mira").has_value());
  EXPECT_TRUE(find_system_spec("Blue Waters").has_value());
  EXPECT_TRUE(find_system_spec("bw").has_value());
  EXPECT_FALSE(find_system_spec("frontier").has_value());
}

TEST(SystemSpec, TableOneCandidatesMatchPaper) {
  const auto candidates = table1_candidates();
  EXPECT_EQ(candidates.size(), 9u);
  int selected = 0;
  for (const auto& c : candidates) selected += c.selected;
  EXPECT_EQ(selected, 5);
  // The Supercloud exclusion was for inconsistency, not scale.
  for (const auto& c : candidates) {
    if (c.name == "Supercloud") {
      EXPECT_TRUE(c.large_scale);
      EXPECT_FALSE(c.info_consistent);
      EXPECT_FALSE(c.selected);
    }
  }
}

// --------------------------------------------------------------- Trace ---

TEST(Trace, SortAssignsIds) {
  Trace t(mira_spec());
  t.add(make_job(30, 0, 1, 1));
  t.add(make_job(10, 0, 1, 1));
  t.add(make_job(20, 0, 1, 1));
  EXPECT_FALSE(t.is_sorted_by_submit());
  t.sort_by_submit();
  EXPECT_TRUE(t.is_sorted_by_submit());
  EXPECT_DOUBLE_EQ(t[0].submit_time, 10.0);
  EXPECT_EQ(t[2].id, 2u);
}

TEST(Trace, SortedInputIsRenumberedAndParentsRemapped) {
  // Already in submit order (ties included) with 1-based ids, as an SWF
  // file carries them: the order stays, ids become 0..n-1 and every
  // parent edge follows its job to the new id.
  Trace t(mira_spec());
  const double submits[] = {0, 10, 10, 20, 30};
  for (std::uint64_t i = 0; i < 5; ++i) {
    Job j = make_job(submits[i], 0, 1, 1, JobStatus::Passed,
                     static_cast<std::uint32_t>(i));
    j.id = i + 1;
    if (i == 2) j.parents = {1, 2};
    if (i == 4) j.parents = {3, 4};
    t.add(j);
  }
  ASSERT_TRUE(t.is_sorted_by_submit());
  t.sort_by_submit();
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(t[i].id, i);
    EXPECT_EQ(t[i].user, i);  // no job moved
  }
  EXPECT_EQ(t[2].parents, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(t[4].parents, (std::vector<std::uint64_t>{2, 3}));
  EXPECT_TRUE(t[0].parents.empty());
}

TEST(Trace, UnsortedInputKeepsTheOrderOfEqualSubmits) {
  Trace t(mira_spec());
  const double submits[] = {5, 0, 5, 0, 5};
  for (std::uint64_t i = 0; i < 5; ++i) {
    Job j = make_job(submits[i], 0, 1, 1, JobStatus::Passed,
                     static_cast<std::uint32_t>(i));
    j.id = i + 1;
    if (i == 2) j.parents = {2};  // the job with user 1
    t.add(j);
  }
  ASSERT_FALSE(t.is_sorted_by_submit());
  t.sort_by_submit();
  const std::uint32_t users[] = {1, 3, 0, 2, 4};
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(t[i].id, i);
    EXPECT_EQ(t[i].user, users[i]) << "position " << i;
  }
  EXPECT_EQ(t[3].parents, (std::vector<std::uint64_t>{0}));
}

TEST(Trace, WindowFiltersAndRebases) {
  Trace t(mira_spec());
  for (int i = 0; i < 10; ++i) t.add(make_job(i * 100.0, 0, 10, 1));
  t.sort_by_submit();
  const auto w = t.window(200.0, 500.0);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w[0].submit_time, 0.0);
  EXPECT_EQ(w.spec().epoch_unix, t.spec().epoch_unix + 200);
}

TEST(Trace, InterarrivalTimes) {
  Trace t(mira_spec());
  t.add(make_job(0, 0, 1, 1));
  t.add(make_job(5, 0, 1, 1));
  t.add(make_job(20, 0, 1, 1));
  t.sort_by_submit();
  const auto gaps = t.interarrival_times();
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_DOUBLE_EQ(gaps[0], 5.0);
  EXPECT_DOUBLE_EQ(gaps[1], 15.0);
}

TEST(Trace, UserCountAndCoreHours) {
  Trace t(mira_spec());
  t.add(make_job(0, 0, 3600, 2, JobStatus::Passed, 7));
  t.add(make_job(1, 0, 3600, 3, JobStatus::Passed, 7));
  t.add(make_job(2, 0, 3600, 1, JobStatus::Passed, 8));
  EXPECT_EQ(t.user_count(), 2u);
  EXPECT_DOUBLE_EQ(t.total_core_hours(), 6.0);
}

TEST(Trace, EndTime) {
  Trace t(mira_spec());
  t.add(make_job(0, 10, 100, 1));
  t.add(make_job(50, 0, 10, 1));
  EXPECT_DOUBLE_EQ(t.end_time(), 110.0);
  EXPECT_DOUBLE_EQ(t.last_submit(), 50.0);
}

// ----------------------------------------------------------------- SWF ---

TEST(Swf, RoundTrip) {
  Trace t(theta_spec());
  Job j = make_job(100, 20, 300, 64, JobStatus::Killed, 5);
  j.requested_time = 600;
  t.add(j);
  t.add(make_job(200, 0, 50, 128, JobStatus::Failed, 6));
  t.sort_by_submit();

  std::ostringstream out;
  write_swf(out, t);
  std::istringstream in(out.str());
  const auto back = read_swf(in, theta_spec());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_DOUBLE_EQ(back[0].submit_time, 100.0);
  EXPECT_DOUBLE_EQ(back[0].wait_time, 20.0);
  EXPECT_DOUBLE_EQ(back[0].run_time, 300.0);
  EXPECT_EQ(back[0].cores, 64u);
  EXPECT_EQ(back[0].status, JobStatus::Killed);
  EXPECT_DOUBLE_EQ(back[0].requested_time, 600.0);
  EXPECT_EQ(back[1].status, JobStatus::Failed);
  EXPECT_EQ(back[1].user, 6u);
}

TEST(Swf, SkipsCommentsAndUnknownRuntime) {
  const std::string swf =
      "; a comment\n"
      "1 0 0 -1 4 -1 -1 4 600 -1 1 3 -1 -1 -1 -1 -1 -1\n"
      "2 10 5 100 4 -1 -1 4 600 -1 1 3 -1 -1 -1 -1 -1 -1\n";
  std::istringstream in(swf);
  const auto t = read_swf(in, theta_spec());
  ASSERT_EQ(t.size(), 1u);  // first dropped (unknown runtime)
  EXPECT_DOUBLE_EQ(t[0].run_time, 100.0);
}

TEST(Swf, RejectsMalformed) {
  std::istringstream bad("1 2 3\n");
  EXPECT_THROW(read_swf(bad, theta_spec()), ParseError);
  std::istringstream nan_field(
      "x 0 0 100 4 -1 -1 4 600 -1 1 3 -1 -1 -1 -1 -1 -1\n");
  EXPECT_THROW(read_swf(nan_field, theta_spec()), ParseError);
}

// ----------------------------------------------------------- CSV forms ---

TEST(LumosCsv, RoundTrip) {
  Trace t(philly_spec());
  Job j = make_job(5, 2, 60, 8, JobStatus::Passed, 3);
  j.kind = ResourceKind::Gpu;
  j.virtual_cluster = 4;
  t.add(j);
  t.sort_by_submit();
  std::ostringstream out;
  write_lumos_csv(out, t);
  std::istringstream in(out.str());
  const auto back = read_lumos_csv(in, philly_spec());
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].kind, ResourceKind::Gpu);
  EXPECT_EQ(back[0].virtual_cluster, 4);
  EXPECT_EQ(back[0].status, JobStatus::Passed);
}

TEST(DlCsv, ParsesPhillyDialect) {
  const std::string csv =
      "job_id,user,vc,submit_time,queue_delay,run_time,gpus,status\n"
      "1,10,3,0,5,600,1,Pass\n"
      "2,11,2,30,-2,100,16,Killed\n";
  std::istringstream in(csv);
  const auto t = read_dl_csv(in, philly_spec());
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].cores, 1u);
  EXPECT_EQ(t[0].virtual_cluster, 3);
  EXPECT_EQ(t[0].kind, ResourceKind::Gpu);
  EXPECT_DOUBLE_EQ(t[1].wait_time, 0.0);  // negative clamped
  EXPECT_EQ(t[1].status, JobStatus::Killed);
  EXPECT_EQ(t[1].nodes, 2u);  // 16 GPUs over 8-GPU nodes
}

TEST(DlCsv, MissingColumnThrows) {
  std::istringstream in("job_id,user\n1,2\n");
  EXPECT_THROW(read_dl_csv(in, philly_spec()), ParseError);
}

TEST(AlcfCsv, ParsesTimestamps) {
  auto spec = theta_spec();
  spec.epoch_unix = 1000;
  const std::string csv =
      "JOB_ID,USER,QUEUED_TIMESTAMP,START_TIMESTAMP,END_TIMESTAMP,"
      "NODES_USED,CORES_USED,WALLTIME_SECONDS,EXIT_STATUS\n"
      "7,3,1100,1160,1460,2,128,600,0\n"
      "8,3,1200,1200,1300,1,64,600,-9\n";
  std::istringstream in(csv);
  const auto t = read_alcf_csv(in, spec);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_DOUBLE_EQ(t[0].submit_time, 100.0);
  EXPECT_DOUBLE_EQ(t[0].wait_time, 60.0);
  EXPECT_DOUBLE_EQ(t[0].run_time, 300.0);
  EXPECT_EQ(t[0].status, JobStatus::Passed);
  EXPECT_EQ(t[1].status, JobStatus::Killed);
}

TEST(AlcfCsv, RejectsNonMonotonicTimestamps) {
  const std::string csv =
      "JOB_ID,USER,QUEUED_TIMESTAMP,START_TIMESTAMP,END_TIMESTAMP,"
      "NODES_USED,CORES_USED,WALLTIME_SECONDS,EXIT_STATUS\n"
      "7,3,1100,1000,1460,2,128,600,0\n";
  std::istringstream in(csv);
  EXPECT_THROW(read_alcf_csv(in, theta_spec()), ParseError);
}

// ------------------------------------------------------------ validate ---

TEST(Validate, CleanTracePasses) {
  Trace t(theta_spec());
  t.add(make_job(0, 0, 100, 64));
  t.sort_by_submit();
  const auto report = validate(t);
  EXPECT_TRUE(report.consistent());
  EXPECT_TRUE(report.issues().empty());
}

TEST(Validate, DetectsSupercloudStyleInconsistency) {
  Trace t(theta_spec());  // capacity 281088 cores
  t.add(make_job(0, 0, 100, 500000));
  t.sort_by_submit();
  const auto report = validate(t);
  EXPECT_FALSE(report.consistent());
  ASSERT_FALSE(report.issues().empty());
  EXPECT_EQ(report.issues()[0].check, "capacity");
  EXPECT_NE(report.to_string().find("FATAL"), std::string::npos);
}

TEST(Validate, WarnsOnZeroCoresAndUnsorted) {
  Trace t(theta_spec());
  auto j = make_job(10, 0, 100, 0);
  t.add(j);
  t.add(make_job(5, 0, 100, 64));
  const auto report = validate(t);
  EXPECT_TRUE(report.consistent());  // warnings only
  EXPECT_EQ(report.issues().size(), 2u);
}

TEST(Validate, WarnsOnWalltimeUnderrun) {
  Trace t(theta_spec());
  auto j = make_job(0, 0, 1000, 64);
  j.requested_time = 100.0;  // ran 10x its request
  t.add(j);
  const auto report = validate(t);
  bool found = false;
  for (const auto& i : report.issues()) {
    found |= i.check == "walltime-underrun";
  }
  EXPECT_TRUE(found);
}

TEST(Validate, WalltimeUnderrunHasFivePercentGrace) {
  Trace t(theta_spec());
  auto inside = make_job(0, 0, 104.9, 64);
  inside.requested_time = 100.0;  // within the 5% grace band
  t.add(inside);
  auto outside = make_job(1, 0, 105.1, 64);
  outside.requested_time = 100.0;  // just past it
  t.add(outside);
  const auto report = validate(t);
  std::size_t underruns = 0;
  for (const auto& i : report.issues()) {
    if (i.check == "walltime-underrun") underruns = i.job_count;
  }
  EXPECT_EQ(underruns, 1u);
}

TEST(Validate, FatalCountIsCachedAndMatchesIssues) {
  ValidationReport report;
  EXPECT_TRUE(report.consistent());
  report.add({IssueSeverity::Warning, "w", "warning", 1});
  EXPECT_TRUE(report.consistent());
  report.add({IssueSeverity::Fatal, "f", "fatal", 1});
  report.add({IssueSeverity::Fatal, "f2", "fatal too", 1});
  EXPECT_FALSE(report.consistent());
  EXPECT_EQ(report.fatal_count(), 2u);
  EXPECT_EQ(report.issues().size(), 3u);
}

// ------------------------------------------------------------ sanitize ---

TEST(Sanitize, QuarantinesCapacityViolations) {
  Trace t(theta_spec());  // capacity 281088 cores
  t.add(make_job(0, 0, 100, 64));
  t.add(make_job(5, 0, 100, 500000));  // Supercloud-style impossible job
  t.add(make_job(9, 0, 100, 128));
  t.sort_by_submit();
  const auto before = validate(t);
  ASSERT_FALSE(before.consistent());

  const auto repair = sanitize(t, before);
  EXPECT_EQ(repair.dropped_capacity, 1u);
  EXPECT_EQ(repair.dropped(), 1u);
  ASSERT_EQ(repair.quarantined.size(), 1u);
  EXPECT_EQ(repair.quarantined[0].cores, 500000u);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_TRUE(validate(t).consistent());
}

TEST(Sanitize, QuarantinesNegativeGeometryAndZeroCores) {
  Trace t(theta_spec());
  t.add(make_job(0, 0, 100, 64));
  auto negative = make_job(1, 0, 100, 64);
  negative.run_time = -5.0;
  t.add(negative);
  t.add(make_job(2, 0, 100, 0));  // zero cores
  t.sort_by_submit();
  const auto repair = sanitize(t, validate(t));
  EXPECT_EQ(repair.dropped_negative_geometry, 1u);
  EXPECT_EQ(repair.dropped_zero_cores, 1u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(validate(t).consistent());
  EXPECT_TRUE(validate(t).issues().empty());
}

TEST(Sanitize, ResortsWhenReportFlagsDisorder) {
  Trace t(theta_spec());
  t.add(make_job(10, 0, 100, 64));
  t.add(make_job(5, 0, 100, 64));
  const auto repair = sanitize(t, validate(t));
  EXPECT_TRUE(repair.resorted);
  EXPECT_EQ(repair.dropped(), 0u);
  EXPECT_TRUE(t.is_sorted_by_submit());
  EXPECT_DOUBLE_EQ(t.jobs()[0].submit_time, 5.0);
}

TEST(Sanitize, NoOpOnCleanTrace) {
  Trace t(theta_spec());
  t.add(make_job(0, 0, 100, 64));
  t.sort_by_submit();
  const auto repair = sanitize(t, validate(t));
  EXPECT_EQ(repair.dropped(), 0u);
  EXPECT_FALSE(repair.resorted);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_NE(repair.to_string().find("nothing to repair"), std::string::npos);
}

TEST(Sanitize, ToStringNamesEveryRepair) {
  Trace t(theta_spec());
  t.add(make_job(5, 0, 100, 500000));
  t.add(make_job(0, 0, 100, 0));
  const auto repair = sanitize(t, validate(t));
  const auto text = repair.to_string();
  EXPECT_NE(text.find("capacity"), std::string::npos);
  EXPECT_NE(text.find("zero"), std::string::npos);
}

// ------------------------------------------------------- lenient parse ---

TEST(Swf, LenientBudgetAbsorbsBadRows) {
  const std::string swf =
      "; header\n"
      "1 0 0 100 4 -1 -1 4 600 -1 1 3 -1 -1 -1 -1 -1 -1\n"
      "not an swf row at all\n"
      "2 10 5 100 4 -1 -1 4 600 -1 1 3 -1 -1 -1 -1 -1 -1\n";
  std::istringstream in(swf);
  ParseOptions opts;
  opts.bad_row_budget = 1;
  ParseAudit audit;
  const auto t = read_swf(in, theta_spec(), opts, &audit);
  EXPECT_EQ(t.size(), 2u);  // both good rows survive
  ASSERT_EQ(audit.skipped_lines.size(), 1u);
  EXPECT_EQ(audit.skipped_lines[0], 3u);  // 1-based, comments counted
  EXPECT_FALSE(audit.clean());
}

TEST(Swf, BudgetExhaustionRethrowsTheOffendingError) {
  const std::string swf =
      "bad row one\n"
      "bad row two\n"
      "1 0 0 100 4 -1 -1 4 600 -1 1 3 -1 -1 -1 -1 -1 -1\n";
  std::istringstream in(swf);
  ParseOptions opts;
  opts.bad_row_budget = 1;  // second bad row exceeds the budget
  ParseAudit audit;
  try {
    (void)read_swf(in, theta_spec(), opts, &audit);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  ASSERT_EQ(audit.skipped_lines.size(), 1u);
  EXPECT_EQ(audit.skipped_lines[0], 1u);
}

TEST(Swf, StrictByDefaultWithLineContext) {
  std::istringstream in("1 2 3\n");
  try {
    (void)read_swf(in, theta_spec());
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
}

TEST(Swf, OriginPrefixesErrorContext) {
  std::istringstream in("garbage\n");
  ParseOptions opts;
  opts.origin = "theta.swf";
  try {
    (void)read_swf(in, theta_spec(), opts);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("theta.swf:1"), std::string::npos);
  }
}

TEST(Swf, AuditCountsUnknownRuntimeDrops) {
  const std::string swf =
      "1 0 0 -1 4 -1 -1 4 600 -1 1 3 -1 -1 -1 -1 -1 -1\n"
      "2 10 5 100 4 -1 -1 4 600 -1 1 3 -1 -1 -1 -1 -1 -1\n";
  std::istringstream in(swf);
  ParseAudit audit;
  const auto t = read_swf(in, theta_spec(), {}, &audit);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(audit.dropped_unknown_runtime, 1u);
  EXPECT_TRUE(audit.skipped_lines.empty());
  EXPECT_FALSE(audit.clean());
}

TEST(LumosCsv, LenientBudgetAbsorbsBadRows) {
  const std::string csv =
      "id,user,submit,wait,run,requested_time,nodes,cores,kind,status,vc\n"
      "1,2,0,5,100,200,1,4,cpu,pass,-1\n"
      "2,2,1,5,oops,200,1,4,cpu,pass,-1\n"
      "3,2,2,5,100,200,1,4,cpu,pass,-1\n";
  std::istringstream in(csv);
  ParseOptions opts;
  opts.bad_row_budget = 1;
  ParseAudit audit;
  const auto t = read_lumos_csv(in, philly_spec(), opts, &audit);
  EXPECT_EQ(t.size(), 2u);
  ASSERT_EQ(audit.skipped_lines.size(), 1u);
  EXPECT_EQ(audit.skipped_lines[0], 3u);  // header is line 1
}

TEST(LumosCsv, StrictModeThrowsWithContext) {
  const std::string csv =
      "id,user,submit,wait,run,requested_time,nodes,cores,kind,status,vc\n"
      "1,2,0,5,100,200,1,4,cpu,not-a-status,-1\n";
  std::istringstream in(csv);
  ParseOptions opts;
  opts.origin = "philly.csv";
  try {
    (void)read_lumos_csv(in, philly_spec(), opts);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("philly.csv:2"), std::string::npos);
  }
}

TEST(DlCsv, MissingHeaderIsNeverBudgeted) {
  // The bad-row budget forgives malformed *rows*; a missing required
  // column is a file-level defect and must throw regardless.
  std::istringstream in("job_id,user\n1,2\n");
  ParseOptions opts;
  opts.bad_row_budget = 100;
  EXPECT_THROW((void)read_dl_csv(in, philly_spec(), opts), ParseError);
}

// ---- malformed-row fuzz corpus (crash-consistent serve mode) -------------
//
// A live feed hands the parser arbitrary bytes; every row here has crashed
// or could crash a naive parser (UB float->int casts, non-finite doubles
// poisoning sketches, unbounded field counts). The contract: definite
// malformation throws typed ParseError (never crashes, never UB), and the
// lenient budget in read_swf absorbs it without losing neighboring rows.

namespace {

const char* kMalformedSwfRows[] = {
    "",                                         // blank after trim? (guard)
    "1 2 3",                                    // far too few fields
    "1 0 10 100 4 -1 -1 4 200 -1 1 3 -1 -1 -1 -1 -1",  // 17 fields
    "a b c d e f g h i j k l m n o p q r",     // 18 non-numeric fields
    "nan 0 10 100 4 -1 -1 4 200 -1 1 3 -1 -1 -1 -1 -1 -1",   // nan id
    "1 inf 10 100 4 -1 -1 4 200 -1 1 3 -1 -1 -1 -1 -1 -1",   // inf submit
    "1 0 -inf 100 4 -1 -1 4 200 -1 1 3 -1 -1 -1 -1 -1 -1",   // -inf wait
    "1 0 10 nan 4 -1 -1 4 200 -1 1 3 -1 -1 -1 -1 -1 -1",     // nan runtime
    "1 0 10 1e400 4 -1 -1 4 200 -1 1 3 -1 -1 -1 -1 -1 -1",   // overflow
    "1 0 10 100 4 -1 -1 4 200 -1 \x01\x02 3 -1 -1 -1 -1 -1 -1",  // binary
    "1,0,10,100,4,-1,-1,4,200,-1,1,3,-1,-1,-1,-1,-1,-1",     // CSV dialect
};

}  // namespace

TEST(SwfFuzz, MalformedRowsThrowTypedParseError) {
  for (const char* raw : kMalformedSwfRows) {
    const auto trimmed = util::trim(raw);
    if (trimmed.empty()) continue;  // read_swf filters blanks before parse
    EXPECT_THROW((void)parse_swf_row(trimmed, ResourceKind::Cpu, {}, 1),
                 ParseError)
        << "row accepted: " << raw;
  }
}

TEST(SwfFuzz, LenientReaderSurvivesTheWholeCorpusInOneFile) {
  // Interleave every malformed row with valid rows: the budget must skip
  // exactly the bad ones and keep every good one, with audit line numbers
  // pointing at the skips.
  std::ostringstream file;
  file << "; fuzz corpus\n";
  std::size_t valid = 0;
  std::size_t malformed = 0;
  for (const char* raw : kMalformedSwfRows) {
    if (!util::trim(raw).empty()) ++malformed;
    file << raw << "\n";
    ++valid;
    file << valid << " " << valid * 10
         << " 5 100 4 -1 -1 4 200 -1 1 3 -1 -1 -1 -1 -1 -1\n";
  }
  // An overlong line (10 KiB of digits in one field) must not wedge it —
  // the id overflows double parsing, so the row is budgeted, not crashed.
  file << std::string(10000, '9')
       << " 0 5 100 4 -1 -1 4 200 -1 1 3 -1 -1 -1 -1 -1 -1\n";
  std::istringstream in(file.str());
  ParseOptions opts;
  opts.bad_row_budget = 1000;  // the live-feed default
  ParseAudit audit;
  const auto t = read_swf(in, theta_spec(), opts, &audit);
  EXPECT_EQ(t.size(), valid);
  EXPECT_EQ(audit.skipped_lines.size(), malformed + 1);
  EXPECT_FALSE(audit.clean());
}

TEST(SwfFuzz, StrictModeStopsAtTheFirstMalformedRow) {
  std::istringstream in(
      "1 0 5 100 4 -1 -1 4 200 -1 1 3 -1 -1 -1 -1 -1 -1\n"
      "not a row\n");
  EXPECT_THROW((void)read_swf(in, theta_spec()), ParseError);
}

TEST(SwfFuzz, OutOfRangeValuesClampInsteadOfUndefinedBehavior) {
  // Values that fit a double but not the integer field: the conversion
  // must clamp (saturate), never hit UB via a direct cast.
  const auto row = parse_swf_row(
      "1e300 0 5 100 4294967296 -1 -1 1 200 -1 1 99999999999 -1 -1 -1 -1 "
      "-1 -1",
      ResourceKind::Cpu, {}, 1);
  EXPECT_EQ(row.job.id, UINT64_MAX);
  EXPECT_EQ(row.job.cores, UINT32_MAX);
  EXPECT_EQ(row.job.user, UINT32_MAX);
  EXPECT_FALSE(row.unknown_runtime);
}

TEST(SwfFuzz, OutOfRangeStatusCodeMapsToFailed) {
  const auto row = parse_swf_row(
      "1 0 5 100 4 -1 -1 4 200 -1 7 3 -1 -1 -1 -1 -1 -1",
      ResourceKind::Cpu, {}, 1);
  EXPECT_EQ(row.job.status, JobStatus::Failed);
}

TEST(SwfFuzz, NegativeRuntimeIsUnknownNotMalformed) {
  const auto row = parse_swf_row(
      "1 0 5 -1 4 -1 -1 4 200 -1 1 3 -1 -1 -1 -1 -1 -1",
      ResourceKind::Cpu, {}, 1);
  EXPECT_TRUE(row.unknown_runtime);
}

// ---- differential decoder fuzz -------------------------------------------
//
// parse_swf_row decodes fields in place. The reference below is the
// allocating decoder it replaced (split_whitespace + parse_double), kept
// as it was so seeded mutations of the corpus can diff the two: the same
// Job bit for bit, or the same ParseError text.

namespace reference {

std::vector<std::string_view> split_whitespace(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

std::optional<double> parse_double(std::string_view s) noexcept {
  s = util::trim(s);
  if (s.empty()) return std::nullopt;
  double value = 0.0;
  const auto* first = s.data();
  const auto* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return value;
}

JobStatus status_from_swf(long long code) noexcept {
  switch (code) {
    case 1: return JobStatus::Passed;
    case 5: return JobStatus::Killed;
    default: return JobStatus::Failed;
  }
}

SwfRow parse_swf_row(std::string_view trimmed, ResourceKind kind,
                     const ParseOptions& opts, std::size_t lineno) {
  const auto fields = split_whitespace(trimmed);
  if (fields.size() < 18) {
    throw ParseError(
        util::format("SWF %s: expected 18 fields, got %zu",
                     parse_context(opts, lineno).c_str(), fields.size()));
  }
  auto need_num = [&](std::size_t i) -> double {
    const auto v = parse_double(fields[i]);
    if (!v) {
      throw ParseError(util::format("SWF %s field %zu: not a number",
                                    parse_context(opts, lineno).c_str(),
                                    i + 1));
    }
    if (!std::isfinite(*v)) {
      throw ParseError(util::format("SWF %s field %zu: non-finite value",
                                    parse_context(opts, lineno).c_str(),
                                    i + 1));
    }
    return *v;
  };
  const auto to_u32 = [](double v) -> std::uint32_t {
    if (!(v > 0.0)) return 0;
    if (v >= 4294967295.0) return UINT32_MAX;
    return static_cast<std::uint32_t>(v);
  };
  const auto to_u64 = [](double v) -> std::uint64_t {
    if (!(v > 0.0)) return 0;
    if (v >= 18446744073709549568.0) return UINT64_MAX;
    return static_cast<std::uint64_t>(v);
  };
  SwfRow row;
  Job& j = row.job;
  j.id = to_u64(need_num(0));
  j.submit_time = need_num(1);
  const double wait = need_num(2);
  j.wait_time = wait < 0.0 ? 0.0 : wait;
  j.run_time = need_num(3);
  if (j.run_time < 0.0) {
    row.unknown_runtime = true;
    return row;
  }
  const double alloc = need_num(4);
  const double req_procs = need_num(7);
  const double procs = alloc > 0.0 ? alloc : req_procs;
  j.cores = procs > 0.0 ? std::max<std::uint32_t>(to_u32(procs), 1) : 1;
  j.nodes = j.cores;
  j.requested_time = need_num(8);
  if (j.requested_time <= 0.0) j.requested_time = kNoValue;
  const double status = need_num(10);
  j.status = status_from_swf(
      status >= 0.0 && status <= 5.0 ? static_cast<long long>(status) : -1);
  j.user = to_u32(need_num(11));
  j.kind = kind;
  return row;
}

}  // namespace reference

/// A decode as comparable text: every Job field (doubles by their bits),
/// or the ParseError message.
std::string decode_outcome(bool use_reference, std::string_view row,
                           const ParseOptions& opts, std::size_t lineno) {
  try {
    const SwfRow r =
        use_reference
            ? reference::parse_swf_row(row, ResourceKind::Gpu, opts, lineno)
            : parse_swf_row(row, ResourceKind::Gpu, opts, lineno);
    const Job& j = r.job;
    std::ostringstream os;
    os << "ok unknown=" << r.unknown_runtime << " id=" << j.id
       << " user=" << j.user
       << " submit=" << std::bit_cast<std::uint64_t>(j.submit_time)
       << " wait=" << std::bit_cast<std::uint64_t>(j.wait_time)
       << " run=" << std::bit_cast<std::uint64_t>(j.run_time)
       << " req=" << std::bit_cast<std::uint64_t>(j.requested_time)
       << " nodes=" << j.nodes << " cores=" << j.cores
       << " kind=" << static_cast<int>(j.kind)
       << " status=" << static_cast<int>(j.status)
       << " vc=" << j.virtual_cluster
       << " hedge=" << std::bit_cast<std::uint64_t>(j.hedge_run_time)
       << " parents=" << j.parents.size();
    return os.str();
  } catch (const ParseError& e) {
    return std::string("error ") + e.what();
  }
}

std::vector<std::string> split_on_space(const std::string& row) {
  std::vector<std::string> out;
  std::istringstream in(row);
  for (std::string f; in >> f;) out.push_back(f);
  return out;
}

/// One seeded mutation of `row`: separators, extra or missing fields,
/// special numeric spellings, truncation and stray bytes.
std::string mutate(const std::string& row, util::Rng& rng) {
  static const char* const kSeparators[] = {" ", "\t", "\v", "\f", "\r",
                                            "\n", " \v ", "\t\f\r"};
  static const char* const kTokens[] = {
      "nan",  "-nan", "nan(1)", "inf",   "-inf", "infinity", "1e400",
      "-1e400", "1e-400", "-0",  "+1",   "+0",   "0x10",     "1.",
      ".5",   "1e",   "--1",    "1e+3",  "4294967296",        "1e300",
      "7",    "3.5",  "-1",     "0",     "\x01", "1,2",      "00012"};
  auto fields = split_on_space(row);
  const int ops = 1 + static_cast<int>(rng.uniform_index(3));
  for (int op = 0; op < ops; ++op) {
    const std::size_t n = fields.size();
    switch (rng.uniform_index(5)) {
      case 0:  // a special token in place of a field
        if (n > 0) {
          fields[rng.uniform_index(n)] =
              kTokens[rng.uniform_index(std::size(kTokens))];
        }
        break;
      case 1:  // more than 18 fields
        for (std::uint64_t k = 1 + rng.uniform_index(4); k > 0; --k) {
          fields.push_back(kTokens[rng.uniform_index(std::size(kTokens))]);
        }
        break;
      case 2:  // a field fewer
        if (n > 0) {
          fields.erase(fields.begin() +
                       static_cast<std::ptrdiff_t>(rng.uniform_index(n)));
        }
        break;
      case 3:  // a field repeated
        if (n > 0) {
          const std::size_t i = rng.uniform_index(n);
          fields.insert(fields.begin() + static_cast<std::ptrdiff_t>(i),
                        fields[i]);
        }
        break;
      default:  // a field with a stray sign or byte in it
        if (n > 0) {
          std::string& f = fields[rng.uniform_index(n)];
          const char stray[] = {'+', '-', '.', 'e', 'x', '\x7f'};
          f.insert(rng.uniform_index(f.size() + 1), 1,
                   stray[rng.uniform_index(std::size(stray))]);
        }
        break;
    }
  }
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0 || rng.bernoulli(0.2)) {
      out += kSeparators[rng.uniform_index(std::size(kSeparators))];
    }
    out += fields[i];
  }
  if (rng.bernoulli(0.2)) {
    out += kSeparators[rng.uniform_index(std::size(kSeparators))];
  }
  if (rng.bernoulli(0.15)) out.resize(rng.uniform_index(out.size() + 1));
  return out;
}

TEST(SwfFuzz, InPlaceDecoderMatchesTheAllocatingDecoderOnMutations) {
  std::vector<std::string> corpus(std::begin(kMalformedSwfRows),
                                  std::end(kMalformedSwfRows));
  corpus.insert(corpus.end(), {
      "1 0 5 100 4 -1 -1 4 200 -1 1 3 -1 -1 -1 -1 -1 -1",
      "2 12.5 -3 3.25e2 0 -1 -1 16 0 -1 5 7 -1 -1 -1 -1 -1 -1",
      "3 1e9 0 0 -1 -1 -1 0 -1 -1 0 4294967295 -1 -1 -1 2 -1 -1",
      "1e300 0 5 100 4294967296 -1 -1 1 200 -1 1 99999999999 -1 -1 -1 -1 "
      "-1 -1",
      "1 0 5 -1 4 -1 -1 4 200 -1 1 3 -1 -1 -1 -1 -1 -1",
  });
  ParseOptions opts;
  opts.origin = "fuzz.swf";
  util::Rng rng(20240425);
  std::size_t accepted = 0;
  std::size_t field_count = 0;
  std::size_t not_a_number = 0;
  std::size_t non_finite = 0;
  constexpr std::size_t kCases = 20000;
  for (std::size_t c = 0; c < kCases; ++c) {
    const std::string row = mutate(corpus[c % corpus.size()], rng);
    // As the readers call it (trimmed, blanks filtered) and untrimmed.
    for (const std::string_view input : {util::trim(row),
                                         std::string_view(row)}) {
      if (input.empty()) continue;
      const std::string want = decode_outcome(true, input, opts, c + 1);
      const std::string got = decode_outcome(false, input, opts, c + 1);
      ASSERT_EQ(got, want) << "case " << c << " row: " << row;
      accepted += want.rfind("ok", 0) == 0;
      field_count += want.find("expected 18 fields") != std::string::npos;
      not_a_number += want.find("not a number") != std::string::npos;
      non_finite += want.find("non-finite") != std::string::npos;
    }
  }
  // Every outcome class is reached, so the diff covers each path.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(field_count, 100u);
  EXPECT_GT(not_a_number, 100u);
  EXPECT_GT(non_finite, 100u);
}

}  // namespace
}  // namespace lumos::trace
