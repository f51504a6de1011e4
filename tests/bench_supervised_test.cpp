// End-to-end fault drill of `bench_runner --supervised` (registered as the
// plain ctest `bench_supervised_smoke`): one harness in a three-harness
// smoke fleet is armed to crash / hang / emit garbage via the hidden
// --inject-fault hook, and the run must still complete with the failure
// recorded (status, exit code or signal, stderr tail) while the healthy
// harnesses' metrics land. A second invocation must resume from the
// journal, re-running only the failed harness. Finally, a fault-free
// supervised run must produce harness entries (metrics, counters and
// gauges) bit-identical to the in-process runner, also when the harness
// flags (--systems, --ablation) are forwarded to the children; an
// unknown --only name must fail as a usage error before anything runs or
// is written; and `--out -` must print nothing but the JSON document.
#include <gtest/gtest.h>

#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "supervise/process.hpp"

#ifndef LUMOS_BENCH_RUNNER
#error "build must define LUMOS_BENCH_RUNNER (see tests/CMakeLists.txt)"
#endif

namespace lumos::bench {
namespace {

namespace fs = std::filesystem;

// Small but representative fleet: a table harness, a simulator-backed
// figure, and a classifier figure. Smoke mode caps each at ~seconds.
const char* const kFleet = "table1_traces,fig4_waiting,fig6_status";
const std::vector<std::string> kFleetNames = {"table1_traces",
                                              "fig4_waiting", "fig6_status"};

struct TempDir {
  fs::path path;
  TempDir() {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("lumos_bench_supervised_" +
            std::to_string(static_cast<long>(::getpid())) + "_" +
            std::to_string(counter++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string out() const { return (path / "BENCH_results.json").string(); }
  std::string journal() const {
    return (path / "BENCH_journal.jsonl").string();
  }
};

supervise::ChildResult run_runner(std::vector<std::string> args,
                                  double deadline_seconds = 600.0) {
  supervise::ChildSpec spec;
  spec.argv = {LUMOS_BENCH_RUNNER};
  spec.argv.insert(spec.argv.end(), args.begin(), args.end());
  spec.deadline_seconds = deadline_seconds;
  spec.grace_seconds = 5.0;
  // Progress lines go to stderr; keep all of them.
  spec.stderr_tail_bytes = std::size_t{1} << 16;
  return supervise::run_child(spec);
}

obs::Json load_json(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return obs::Json::parse(buf.str());
}

const obs::Json& harness_entry(const obs::Json& results,
                               const std::string& name) {
  const obs::Json* harnesses = results.find("harnesses");
  EXPECT_NE(harnesses, nullptr);
  const obs::Json* entry = harnesses->find(name);
  EXPECT_NE(entry, nullptr) << "no entry for " << name;
  static const obs::Json empty = obs::Json::object();
  return entry ? *entry : empty;
}

std::string status_of(const obs::Json& results, const std::string& name) {
  const obs::Json* status = harness_entry(results, name).find("status");
  return status ? status->as_string() : "<missing>";
}

/// A harness entry without the supervisor's own bookkeeping (status and
/// the child's wall time/RSS), i.e. what the in-process runner writes.
obs::Json harness_result(const obs::Json& results, const std::string& name) {
  obs::Json stripped = obs::Json::object();
  for (const auto& [key, value] : harness_entry(results, name).entries()) {
    if (key != "status" && key != "supervise") stripped[key] = value;
  }
  return stripped;
}

/// Every entry of an in-process run equals its supervised counterpart —
/// metrics, counters and gauges, since all of them are deterministic.
void expect_entries_equal(const obs::Json& in_process,
                          const obs::Json& supervised,
                          const std::vector<std::string>& names) {
  for (const auto& name : names) {
    EXPECT_EQ(status_of(supervised, name), "ok");
    const obs::Json inproc = harness_result(in_process, name);
    ASSERT_NE(inproc.find("metrics"), nullptr) << name;
    ASSERT_NE(inproc.find("counters"), nullptr) << name;
    EXPECT_EQ(inproc, harness_result(supervised, name))
        << name << ": supervised entry diverges from in-process";
  }
}

TEST(BenchSupervised, CrashDrillRecordsFailureAndResumeRerunsOnlyIt) {
  TempDir dir;
  // Round 1: fig4_waiting crashes (SIGABRT) on every attempt.
  const auto first = run_runner(
      {"--supervised", "--smoke", "--only", kFleet, "--attempts", "1",
       "--out", dir.out(), "--inject-fault", "fig4_waiting:crash"});
  EXPECT_EQ(first.exit_code, 1) << first.stderr_tail;

  const obs::Json round1 = load_json(dir.out());
  EXPECT_EQ(status_of(round1, "fig4_waiting"), "crashed:SIGABRT");
  const obs::Json& crashed = harness_entry(round1, "fig4_waiting");
  ASSERT_NE(crashed.find("signal"), nullptr);
  EXPECT_EQ(crashed.find("signal")->as_int(), SIGABRT);
  // The healthy harnesses' metrics still landed.
  for (const std::string name : {"table1_traces", "fig6_status"}) {
    EXPECT_EQ(status_of(round1, name), "ok");
    const obs::Json* metrics = harness_entry(round1, name).find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_FALSE(metrics->entries().empty());
  }
  ASSERT_TRUE(fs::exists(dir.journal()));

  // Round 2, fault removed: resumes from the journal, re-running only
  // the crashed harness; the completed ones are reused as "skipped".
  const auto second =
      run_runner({"--supervised", "--smoke", "--only", kFleet, "--attempts",
                  "1", "--out", dir.out()});
  EXPECT_EQ(second.exit_code, 0) << second.stderr_tail;
  EXPECT_NE(second.stderr_tail.find("resuming from"), std::string::npos);
  EXPECT_NE(second.stderr_tail.find("skipped (journal)"), std::string::npos);

  const obs::Json round2 = load_json(dir.out());
  EXPECT_EQ(status_of(round2, "fig4_waiting"), "ok");
  for (const std::string name : {"table1_traces", "fig6_status"}) {
    EXPECT_EQ(status_of(round2, name), "skipped");
    // Skipped entries carry the journalled metrics verbatim.
    const obs::Json* before = harness_entry(round1, name).find("metrics");
    const obs::Json* after = harness_entry(round2, name).find("metrics");
    ASSERT_NE(before, nullptr);
    ASSERT_NE(after, nullptr);
    EXPECT_EQ(*before, *after) << name << " metrics changed across resume";
  }
}

TEST(BenchSupervised, HangDrillTimesOutWithoutStallingTheFleet) {
  TempDir dir;
  // The deadline applies to every child: 5 s leaves the healthy smoke
  // harnesses (about 0.8 s each in an idle ASan+UBSan Debug build) room
  // under a loaded sanitize run.
  const auto result = run_runner(
      {"--supervised", "--smoke", "--only", kFleet, "--attempts", "1",
       "--timeout", "5", "--grace", "0.5", "--out", dir.out(),
       "--inject-fault", "fig6_status:hang"});
  EXPECT_EQ(result.exit_code, 1) << result.stderr_tail;
  const obs::Json results = load_json(dir.out());
  EXPECT_EQ(status_of(results, "fig6_status"), "timeout");
  EXPECT_EQ(status_of(results, "table1_traces"), "ok");
  EXPECT_EQ(status_of(results, "fig4_waiting"), "ok");
}

TEST(BenchSupervised, GarbageStdoutClassifiesAsFailedNotOk) {
  TempDir dir;
  const auto result = run_runner(
      {"--supervised", "--smoke", "--only", kFleet, "--attempts", "1",
       "--out", dir.out(), "--inject-fault", "table1_traces:garbage"});
  EXPECT_EQ(result.exit_code, 1) << result.stderr_tail;
  const obs::Json results = load_json(dir.out());
  // The child exited 0 but printed a torn document: validation demotes it.
  EXPECT_EQ(status_of(results, "table1_traces"), "failed");
  const obs::Json* detail =
      harness_entry(results, "table1_traces").find("detail");
  ASSERT_NE(detail, nullptr);
  EXPECT_NE(detail->as_string().find("unparsable"), std::string::npos);
  EXPECT_EQ(status_of(results, "fig4_waiting"), "ok");
  EXPECT_EQ(status_of(results, "fig6_status"), "ok");
}

TEST(BenchSupervised, FaultFreeRunMatchesInProcessEntriesBitForBit) {
  TempDir dir;
  const std::string in_process_out = (dir.path / "inproc.json").string();
  const auto in_process = run_runner(
      {"--smoke", "--only", kFleet, "--out", in_process_out});
  ASSERT_EQ(in_process.exit_code, 0) << in_process.stderr_tail;
  const auto supervised = run_runner(
      {"--supervised", "--fresh", "--smoke", "--only", kFleet, "--out",
       dir.out()});
  ASSERT_EQ(supervised.exit_code, 0) << supervised.stderr_tail;

  expect_entries_equal(load_json(in_process_out), load_json(dir.out()),
                       kFleetNames);
}

TEST(BenchSupervised, ForwardedHarnessFlagsMatchInProcessMetrics) {
  TempDir dir;
  const std::vector<std::string> flags = {
      "--smoke", "--systems", "Theta", "--ablation", "--only",
      "table2_adaptive_backfill,fig12_prediction"};
  const std::string in_process_out = (dir.path / "inproc.json").string();
  std::vector<std::string> in_process_args = flags;
  in_process_args.insert(in_process_args.end(), {"--out", in_process_out});
  const auto in_process = run_runner(in_process_args);
  ASSERT_EQ(in_process.exit_code, 0) << in_process.stderr_tail;
  std::vector<std::string> supervised_args = flags;
  supervised_args.insert(supervised_args.end(),
                         {"--supervised", "--fresh", "--out", dir.out()});
  const auto supervised = run_runner(supervised_args);
  ASSERT_EQ(supervised.exit_code, 0) << supervised.stderr_tail;

  expect_entries_equal(load_json(in_process_out), load_json(dir.out()),
                       {"table2_adaptive_backfill", "fig12_prediction"});
}

TEST(BenchSupervised, UnknownOnlyNameIsAUsageErrorAndWritesNothing) {
  TempDir dir;
  for (const bool supervised : {false, true}) {
    std::vector<std::string> args = {"--only", "table1_traces,fig4_wating",
                                     "--out", dir.out()};
    if (supervised) args.emplace_back("--supervised");
    const auto result = run_runner(args);
    EXPECT_EQ(result.exit_code, 2) << result.stderr_tail;
    EXPECT_NE(result.stderr_tail.find("fig4_wating"), std::string::npos);
    EXPECT_EQ(result.stdout_text.find("table1_traces"), std::string::npos)
        << "a harness ran before the bad name was rejected";
    EXPECT_EQ(result.stderr_tail.find("table1_traces"), std::string::npos)
        << "a harness ran before the bad name was rejected";
    EXPECT_FALSE(fs::exists(dir.out()));
    EXPECT_FALSE(fs::exists(dir.journal()));
  }
}

TEST(BenchSupervised, OutDashPrintsOnlyTheJsonDocument) {
  const auto result =
      run_runner({"--only", "micro_sim", "--smoke", "--out", "-"});
  ASSERT_EQ(result.exit_code, 0) << result.stderr_tail;
  // The whole of stdout parses; progress went to stderr.
  const obs::Json doc = obs::Json::parse(result.stdout_text);
  EXPECT_EQ(doc.find("schema_version")->as_int(), 2);
  EXPECT_NE(harness_entry(doc, "micro_sim").find("metrics"), nullptr);
  EXPECT_NE(result.stderr_tail.find("micro_sim"), std::string::npos);
}

}  // namespace
}  // namespace lumos::bench
