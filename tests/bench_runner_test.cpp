// Command-line tests of bench_runner (registered as the plain ctest
// `bench_runner_cli`, also run under ASan+UBSan by the sanitize preset):
// the harness flags reach the harness, an unknown --only name or flag is
// a usage error that runs and writes nothing, and `--out -` prints
// nothing but the JSON document. Each harness's own smoke run is the
// `bench_smoke.<name>` ctest (bench/CMakeLists.txt).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

#ifndef LUMOS_BENCH_RUNNER
#error "build must define LUMOS_BENCH_RUNNER (see tests/CMakeLists.txt)"
#endif

namespace lumos::bench {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("lumos_bench_runner_" +
            std::to_string(static_cast<long>(::getpid())) + "_" +
            std::to_string(counter++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct RunResult {
  int exit_code = -1;  ///< -1 when the runner died of a signal
  std::string out;     ///< everything it wrote to stdout
  std::string err;     ///< everything it wrote to stderr
};

/// Runs bench_runner with `args`, stdout and stderr sent to files in
/// `dir`, and waits for it.
RunResult run_runner(const TempDir& dir, std::vector<std::string> args) {
  args.insert(args.begin(), LUMOS_BENCH_RUNNER);
  std::vector<char*> argv;
  for (auto& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const std::string out = dir.file("stdout"), err = dir.file("stderr");
  const int flags = O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC;
  const int out_fd = ::open(out.c_str(), flags, 0600);
  const int err_fd = ::open(err.c_str(), flags, 0600);
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(out_fd, STDOUT_FILENO);
    ::dup2(err_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  ::close(out_fd);
  ::close(err_fd);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, slurp(out),
          slurp(err)};
}

const obs::Json& harness_entry(const obs::Json& results,
                               const std::string& name) {
  const obs::Json* harnesses = results.find("harnesses");
  EXPECT_NE(harnesses, nullptr);
  const obs::Json* entry = harnesses ? harnesses->find(name) : nullptr;
  EXPECT_NE(entry, nullptr) << "no entry for " << name;
  static const obs::Json empty = obs::Json::object();
  return entry ? *entry : empty;
}

TEST(BenchRunnerCli, HarnessFlagsReachTheHarness) {
  TempDir dir;
  const std::string harness = "table2_adaptive_backfill";
  const std::vector<std::string> base = {"--smoke", "--systems", "Theta",
                                         "--only", harness};
  std::vector<std::string> plain = base;
  plain.insert(plain.end(), {"--out", dir.file("plain.json")});
  const RunResult without = run_runner(dir, plain);
  ASSERT_EQ(without.exit_code, 0) << without.err;
  std::vector<std::string> ablation = base;
  ablation.insert(ablation.end(),
                  {"--ablation", "--out", dir.file("ablation.json")});
  const RunResult with = run_runner(dir, ablation);
  ASSERT_EQ(with.exit_code, 0) << with.err;

  const obs::Json plain_doc = obs::Json::parse(slurp(dir.file("plain.json")));
  const obs::Json* plain_metrics =
      harness_entry(plain_doc, harness).find("metrics");
  const obs::Json ablation_doc =
      obs::Json::parse(slurp(dir.file("ablation.json")));
  const obs::Json* ablation_metrics =
      harness_entry(ablation_doc, harness).find("metrics");
  ASSERT_NE(plain_metrics, nullptr);
  ASSERT_NE(ablation_metrics, nullptr);
  ASSERT_FALSE(plain_metrics->entries().empty());

  // --systems Theta: every metric is Theta's, and a run without
  // --ablation publishes no ablation key.
  for (const auto& [key, value] : plain_metrics->entries()) {
    EXPECT_TRUE(std::string_view(key).ends_with(".Theta")) << key;
    EXPECT_FALSE(std::string_view(key).starts_with("ablation.")) << key;
  }
  // --ablation: the same study keys with the same values, plus the
  // factor-shape sweep as ablation.<shape>.<metric>.Theta.
  for (const auto& [key, value] : plain_metrics->entries()) {
    const obs::Json* same = ablation_metrics->find(key);
    ASSERT_NE(same, nullptr) << key;
    EXPECT_EQ(same->as_double(), value.as_double()) << key;
  }
  for (const char* shape : {"linear", "quadratic", "sqrt"}) {
    for (const char* metric : {"wait", "bsld", "util", "violation"}) {
      const std::string key = std::string("ablation.") + shape + "." +
                              metric + ".Theta";
      EXPECT_NE(ablation_metrics->find(key), nullptr) << key;
    }
  }
  EXPECT_EQ(ablation_metrics->entries().size(),
            plain_metrics->entries().size() + 12);
}

TEST(BenchRunnerCli, UnknownOnlyNameIsAUsageErrorAndWritesNothing) {
  TempDir dir;
  const RunResult result =
      run_runner(dir, {"--only", "table1_traces,fig4_wating", "--out",
                       dir.file("results.json")});
  EXPECT_EQ(result.exit_code, 2) << result.err;
  EXPECT_NE(result.err.find("fig4_wating"), std::string::npos);
  EXPECT_EQ(result.out.find("table1_traces"), std::string::npos)
      << "a harness ran before the bad name was rejected";
  EXPECT_EQ(result.err.find("table1_traces"), std::string::npos)
      << "a harness ran before the bad name was rejected";
  EXPECT_FALSE(fs::exists(dir.file("results.json")));
}

TEST(BenchRunnerCli, SupervisedIsAnUnknownFlag) {
  TempDir dir;
  const RunResult result = run_runner(
      dir, {"--supervised", "--smoke", "--out", dir.file("results.json")});
  EXPECT_EQ(result.exit_code, 2) << result.err;
  EXPECT_NE(result.err.find("unknown flag: --supervised"), std::string::npos)
      << result.err;
  EXPECT_FALSE(fs::exists(dir.file("results.json")));
}

TEST(BenchRunnerCli, OutDashPrintsOnlyTheJsonDocument) {
  TempDir dir;
  const RunResult result =
      run_runner(dir, {"--only", "micro_sim", "--smoke", "--out", "-"});
  ASSERT_EQ(result.exit_code, 0) << result.err;
  // The whole of stdout parses; progress went to stderr.
  const obs::Json doc = obs::Json::parse(result.out);
  EXPECT_EQ(doc.find("schema_version")->as_int(), 2);
  EXPECT_NE(harness_entry(doc, "micro_sim").find("metrics"), nullptr);
  EXPECT_NE(result.err.find("micro_sim"), std::string::npos);
}

}  // namespace
}  // namespace lumos::bench
