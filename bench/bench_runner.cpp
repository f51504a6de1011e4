// Unified bench runner: executes every harness in docs/FIGURES.md and
// writes one BENCH_results.json (schema documented in DESIGN.md
// §Observability). Every harness entry — metrics, counters and gauges —
// is deterministic for a fixed seed, so --verify compares whole entries
// and regenerating the file changes it only when behaviour changes.
// Harness wall times appear only on the progress lines, which go to
// stderr (so `--out -` prints nothing but the JSON document); perfbench/
// is where throughput is measured.
//
// Every harness runs in this process. Crash isolation and a per-harness
// deadline come from ctest: each harness is registered as its own
// `bench_smoke.<name>` test (bench/CMakeLists.txt).
//
// Exit codes (bench/common.hpp): 0 success, 1 harness/validation
// failure, 2 usage error, 3 runtime error, 4 injected fault.
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "harnesses.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

#ifndef LUMOS_GIT_REV
#define LUMOS_GIT_REV "unknown"
#endif

namespace lumos::bench {
namespace {

struct RunnerOptions {
  /// The harness flags (bench/common.hpp); --smoke without --days also
  /// shortens every window to 2 days.
  Args args;
  bool verify = false;   ///< run twice, require identical entries
  bool list = false;     ///< print harness names and exit
  bool echo = false;     ///< forward harness table output to stdout
  std::string out = "BENCH_results.json";
  std::vector<std::string> only;  ///< empty = all harnesses
};

std::string runner_usage() {
  return "usage: bench_runner [--smoke] [--verify] [--echo] [--list]\n"
         "                    [--only name,name,...] [--days D] [--seed S]\n"
         "                    [--systems a,b,c] [--ablation]\n"
         "                    [--out FILE]   (FILE '-' writes to stdout)\n";
}

RunnerOptions parse_runner_args(int argc, char** argv) {
  RunnerOptions opt;
  auto value_of = [&](int& i, const std::string& flag) -> std::string {
    LUMOS_REQUIRE(i + 1 < argc, "missing value for " + flag);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    if (parse_harness_flag(opt.args, i, argc, argv)) continue;
    const std::string arg = argv[i];
    if (arg == "--verify") {
      opt.verify = true;
    } else if (arg == "--list") {
      opt.list = true;
    } else if (arg == "--echo") {
      opt.echo = true;
    } else if (arg == "--out") {
      opt.out = value_of(i, arg);
    } else if (arg == "--only") {
      const std::string list = value_of(i, arg);  // split views into this
      for (auto name : util::split(list, ',')) {
        opt.only.emplace_back(name);
      }
    } else {
      throw InvalidArgument("unknown flag: " + arg);
    }
  }
  if (opt.args.smoke && !opt.args.study.duration_days) {
    // Override the per-harness defaults (up to 120 days) in smoke mode.
    opt.args.study.duration_days = 2.0;
  }
  return opt;
}

bool selected(const RunnerOptions& opt, std::string_view name) {
  if (opt.only.empty()) return true;
  for (const auto& n : opt.only) {
    if (n == name) return true;
  }
  return false;
}

const HarnessInfo& find_harness(std::string_view name) {
  for (const auto& info : all_harnesses()) {
    if (info.name == name) return info;
  }
  throw InvalidArgument("unknown harness: " + std::string(name));
}

/// Runs one harness with a fresh global registry; fills the
/// observability snapshot.
obs::Report run_one(const HarnessInfo& info, const Args& args,
                    std::ostream& sink) {
  auto& registry = obs::Registry::global();
  // Drop the instruments, not just their values: a zeroed instrument
  // would still publish `sim.events: 0` etc. in the section of a harness
  // that never touches the simulator — a ghost of whichever harness ran
  // earlier. No harness holds handles across runs, so this is safe.
  registry.clear();
  obs::Report report = info.run(args, sink);
  report.observability = registry.snapshot();
  return report;
}

/// --verify: a same-seed rerun in a fresh registry must reproduce the
/// whole harness entry (metrics, counters and gauges) bit for bit.
bool reproduces(const HarnessInfo& info, const Args& args,
                const obs::Report& report, std::ostream& sink) {
  return run_one(info, args, sink).to_json() == report.to_json();
}

/// Every required metric prefix must match at least one emitted key —
/// the contract documented per harness in docs/FIGURES.md.
std::vector<std::string> missing_metrics(const HarnessInfo& info,
                                         const obs::Report& report) {
  std::vector<std::string> missing;
  for (std::string_view prefix : info.required_metrics) {
    bool found = false;
    for (const auto& [key, value] : report.metrics) {
      if (std::string_view(key).substr(0, prefix.size()) == prefix) {
        found = true;
        break;
      }
    }
    if (!found) missing.emplace_back(prefix);
  }
  return missing;
}

/// The run's provenance: the head of BENCH_results.json.
obs::Json run_fingerprint(const Args& args) {
  obs::Json doc = obs::Json::object();
  doc["schema_version"] = 2;
  doc["git_rev"] = LUMOS_GIT_REV;
  doc["seed"] = args.study.seed;
  doc["smoke"] = args.smoke;
  if (args.study.duration_days) {
    doc["days"] = *args.study.duration_days;
  }
  if (!args.study.systems.empty()) {
    obs::Json systems = obs::Json::array();
    for (const auto& name : args.study.systems) systems.push_back(name);
    doc["systems"] = std::move(systems);
  }
  if (args.ablation) doc["ablation"] = true;
  return doc;
}

int run_in_process(const RunnerOptions& opt) {
  const Args& args = opt.args;
  obs::Json results = run_fingerprint(args);
  obs::Json harnesses = obs::Json::object();

  const auto& all = all_harnesses();
  int failures = 0;
  std::size_t index = 0;
  for (const auto& info : all) {
    ++index;
    if (!selected(opt, info.name)) continue;
    std::cerr << "[" << index << "/" << all.size() << "] " << info.name
              << " ...";
    std::ostringstream sink;
    const auto start = std::chrono::steady_clock::now();
    const obs::Report report = run_one(info, args, sink);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    if (opt.echo) std::cout << '\n' << sink.str() << std::flush;

    std::string status = "ok";
    for (const auto& prefix : missing_metrics(info, report)) {
      status = "FAIL";
      ++failures;
      std::cerr << "\n  missing required metric prefix: " << prefix;
    }
    if (opt.verify && !reproduces(info, args, report, sink)) {
      status = "FAIL";
      ++failures;
      std::cerr << "\n  non-deterministic harness entry";
    }
    std::cerr << " " << util::fixed(wall.count(), 2) << " s (" << status
              << ")\n";
    harnesses[std::string(info.name)] = report.to_json();
  }
  results["harnesses"] = std::move(harnesses);
  obs::write_json_atomic(results, opt.out);
  if (opt.out != "-") {
    std::cerr << "wrote " << opt.out << '\n';
    // Self-check: the written file must parse back and carry the
    // documented top-level keys (what the bench_smoke.* ctests rely on).
    std::ifstream in(opt.out);
    std::ostringstream buf;
    buf << in.rdbuf();
    const obs::Json parsed = obs::Json::parse(buf.str());
    if (!parsed.find("schema_version") || !parsed.find("harnesses")) {
      std::cerr << "self-check FAILED: written JSON lacks documented keys\n";
      ++failures;
    }
  }
  return failures == 0 ? kExitOk : kExitCheckFailed;
}

int run(int argc, char** argv) {
  const RunnerOptions opt = parse_runner_args(argc, argv);
  // Resolve every --only name before anything runs or is written: a typo
  // must not produce (or overwrite) a results file with no harnesses.
  for (const auto& name : opt.only) find_harness(name);
  if (opt.list) {
    for (const auto& info : all_harnesses()) {
      std::cout << info.name << '\t' << info.figure << '\n';
    }
    return kExitOk;
  }
  return run_in_process(opt);
}

}  // namespace
}  // namespace lumos::bench

int main(int argc, char** argv) {
  lumos::bench::ignore_sigpipe();
  try {
    return lumos::bench::run(argc, argv);
  } catch (const lumos::InvalidArgument& e) {
    std::cerr << "bench_runner: " << e.what() << '\n'
              << lumos::bench::runner_usage();
    return lumos::bench::kExitUsage;
  } catch (const std::exception&) {
    return lumos::bench::map_bench_exception("bench_runner");
  }
}
