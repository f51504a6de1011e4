// Unified bench runner: executes every harness in docs/FIGURES.md and
// writes one BENCH_results.json (schema documented in DESIGN.md
// §Observability). Every harness entry — metrics, counters and gauges —
// is deterministic for a fixed seed, so --verify compares whole entries
// and regenerating the file changes it only when behaviour changes.
// Harness wall times appear only on the progress lines, which go to
// stderr (so `--out -` prints nothing but the JSON document); perfbench/
// is where throughput is measured.
//
// Two execution modes:
//   in-process (default)  every harness runs in this process — fastest,
//                         but one crash discards the whole run.
//   --supervised          each harness runs as a fork/exec'd child of
//                         this same binary (internal --child mode) under
//                         lumos::supervise: per-harness deadline with
//                         SIGTERM→grace→SIGKILL escalation, bounded
//                         retry with exponential backoff, crash capture
//                         (exit code / signal, stderr tail, peak RSS),
//                         and an append-only resumable journal
//                         (BENCH_journal.jsonl) — a crash mid-fleet
//                         costs one harness, not the run. See DESIGN.md
//                         "Supervision & crash recovery".
//
// Exit codes (bench/common.hpp): 0 success, 1 harness/validation
// failure, 2 usage error, 3 runtime error, 4 injected fault.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "harnesses.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "supervise/journal.hpp"
#include "supervise/supervise.hpp"
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
  /// The harness flags as typed, forwarded verbatim to every --child.
  std::vector<std::string> harness_flags;
  bool verify = false;   ///< run twice, require identical entries
  bool list = false;     ///< print harness names and exit
  bool echo = false;     ///< forward harness table output to stdout
  std::string out = "BENCH_results.json";
  std::vector<std::string> only;  ///< empty = all harnesses

  // Supervision (--supervised).
  bool supervised = false;
  bool fresh = false;           ///< ignore + truncate an existing journal
  std::string journal;          ///< default: BENCH_journal.jsonl next to out
  double timeout_seconds = 900.0;  ///< per-harness wall-clock deadline
  double grace_seconds = 5.0;      ///< SIGTERM → SIGKILL window
  std::size_t attempts = 2;        ///< total attempts per harness
  double backoff_seconds = 0.5;    ///< retry backoff base (doubles, capped)

  // Internal plumbing (not in the usage text).
  std::string child;          ///< run exactly one harness, JSON on stdout
  std::string inject_fault;   ///< test hook: "harness:crash|hang|garbage"
  std::string arm_failpoint;  ///< test hook: arm a failpoint in the child
  std::string self;           ///< argv[0], for re-exec
};

std::string runner_usage() {
  return "usage: bench_runner [--smoke] [--verify] [--echo] [--list]\n"
         "                    [--only name,name,...] [--days D] [--seed S]\n"
         "                    [--systems a,b,c] [--ablation]\n"
         "                    [--out FILE]   (FILE '-' writes to stdout)\n"
         "                    [--supervised] [--fresh] [--journal FILE]\n"
         "                    [--timeout S] [--grace S] [--attempts N]\n"
         "                    [--backoff S]\n";
}

RunnerOptions parse_runner_args(int argc, char** argv) {
  RunnerOptions opt;
  opt.self = argc > 0 ? argv[0] : "bench_runner";
  auto value_of = [&](int& i, const std::string& flag) -> std::string {
    LUMOS_REQUIRE(i + 1 < argc, "missing value for " + flag);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const int first = i;
    if (parse_harness_flag(opt.args, i, argc, argv)) {
      opt.harness_flags.insert(opt.harness_flags.end(), argv + first,
                               argv + i + 1);
      continue;
    }
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
    } else if (arg == "--supervised") {
      opt.supervised = true;
    } else if (arg == "--fresh") {
      opt.fresh = true;
    } else if (arg == "--journal") {
      opt.journal = value_of(i, arg);
    } else if (arg == "--timeout") {
      opt.timeout_seconds = parse_positive_double(value_of(i, arg),
                                                  "--timeout");
    } else if (arg == "--grace") {
      opt.grace_seconds = parse_positive_double(value_of(i, arg), "--grace");
    } else if (arg == "--attempts") {
      opt.attempts = parse_u64(value_of(i, arg), "--attempts");
      LUMOS_REQUIRE(opt.attempts >= 1, "--attempts must be >= 1");
    } else if (arg == "--backoff") {
      opt.backoff_seconds = parse_positive_double(value_of(i, arg),
                                                  "--backoff");
    } else if (arg == "--child") {
      opt.child = value_of(i, arg);
    } else if (arg == "--inject-fault") {
      opt.inject_fault = value_of(i, arg);
    } else if (arg == "--arm-failpoint") {
      opt.arm_failpoint = value_of(i, arg);
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
  // clear(), not reset(): reset keeps instrument names, so a harness that
  // never touches the simulator would still publish `sim.events: 0` etc.
  // in its section — zero-valued ghosts of whichever harness ran earlier
  // (the ext_fault_aware "sim.events: 0" bug). No harness holds handles
  // across runs, so dropping the instruments outright is safe here.
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

/// The run's provenance: the head of BENCH_results.json and of the
/// supervised journal, which resumes only under an equal fingerprint.
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

int finish_run(const RunnerOptions& opt, obs::Json& results,
               obs::Json harnesses, int failures) {
  results["harnesses"] = std::move(harnesses);
  obs::write_json_atomic(results, opt.out);
  if (opt.out != "-") {
    std::cerr << "wrote " << opt.out << '\n';
    // Self-check: the written file must parse back and carry the
    // documented top-level keys (what the bench_smoke ctest relies on).
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

// ----------------------------------------------------------- child mode --

/// Test hook: `--inject-fault harness:mode` makes the matching --child
/// process misbehave on purpose, so the supervised fleet can be fault-
/// drilled in a release build (no failpoints required).
void maybe_inject_fault(const RunnerOptions& opt) {
  if (opt.inject_fault.empty()) return;
  const std::size_t colon = opt.inject_fault.rfind(':');
  LUMOS_REQUIRE(colon != std::string::npos,
                "--inject-fault expects harness:crash|hang|garbage");
  const std::string target = opt.inject_fault.substr(0, colon);
  const std::string mode = opt.inject_fault.substr(colon + 1);
  if (target != opt.child) return;
  if (mode == "crash") {
    std::abort();
  } else if (mode == "hang") {
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
  } else if (mode == "garbage") {
    std::cout << "{\"figure\": \"garbage\", \"metrics\": {" << std::flush;
    std::exit(kExitOk);
  } else {
    throw InvalidArgument("--inject-fault: unknown mode \"" + mode + "\"");
  }
}

/// `--child name`: run exactly one harness in-process and print its
/// report JSON (one line) on stdout — the supervised runner's unit of
/// isolation. Exit codes follow bench/common.hpp.
int run_child_mode(const RunnerOptions& opt) {
  if (!opt.arm_failpoint.empty()) {
    fault::FailpointRegistry::global().arm(opt.arm_failpoint);
  }
  const HarnessInfo& info = find_harness(opt.child);
  maybe_inject_fault(opt);
  const Args& args = opt.args;
  std::ostringstream sink;
  const obs::Report report = run_one(info, args, sink);
  if (opt.verify && !reproduces(info, args, report, sink)) {
    std::cerr << "bench_runner: non-deterministic harness entry for "
              << info.name << '\n';
    return kExitRuntime;
  }
  std::cout << report.to_json().dump(-1) << '\n';
  return kExitOk;
}

// ------------------------------------------------------- supervised mode --

std::string journal_path(const RunnerOptions& opt) {
  if (!opt.journal.empty()) return opt.journal;
  if (opt.out == "-") return "BENCH_journal.jsonl";
  const auto dir = std::filesystem::path(opt.out).parent_path();
  return (dir / "BENCH_journal.jsonl").string();
}

/// The path this binary re-execs for --child. /proc/self/exe survives a
/// PATH-relative or cwd-relative invocation; argv[0] is the fallback.
std::string self_path(const RunnerOptions& opt) {
  std::error_code ec;
  if (std::filesystem::exists("/proc/self/exe", ec)) {
    return "/proc/self/exe";
  }
  return opt.self;
}

std::vector<std::string> child_argv(const RunnerOptions& opt,
                                    std::string_view harness) {
  std::vector<std::string> argv = {self_path(opt), "--child",
                                   std::string(harness)};
  argv.insert(argv.end(), opt.harness_flags.begin(), opt.harness_flags.end());
  if (opt.verify) argv.push_back("--verify");
  if (!opt.inject_fault.empty()) {
    argv.push_back("--inject-fault");
    argv.push_back(opt.inject_fault);
  }
  if (!opt.arm_failpoint.empty()) {
    argv.push_back("--arm-failpoint");
    argv.push_back(opt.arm_failpoint);
  }
  return argv;
}

supervise::JournalRecord record_of(std::string_view harness,
                                   std::size_t attempt_index,
                                   const supervise::Attempt& attempt) {
  supervise::JournalRecord record;
  record.harness = std::string(harness);
  record.attempt = attempt_index;
  record.status = supervise::status_string(attempt);
  record.detail = attempt.detail;
  record.exit_code = attempt.child.exit_code;
  record.term_signal = attempt.child.term_signal;
  record.wall_seconds = attempt.child.wall_seconds;
  record.user_cpu_seconds = attempt.child.user_cpu_seconds;
  record.system_cpu_seconds = attempt.child.system_cpu_seconds;
  record.max_rss_kb = attempt.child.max_rss_kb;
  record.stderr_tail = attempt.child.stderr_tail;
  return record;
}

int run_supervised_fleet(const RunnerOptions& opt) {
  const obs::Json header = run_fingerprint(opt.args);
  const std::string journal_file = journal_path(opt);

  // Resume only a journal whose fingerprint matches this run exactly;
  // a different seed/window/build must start over.
  const auto contents = supervise::Journal::read(journal_file);
  obs::Json tagged_header = header;
  tagged_header["kind"] = "header";
  const bool resume = !opt.fresh && contents.header == tagged_header;
  const auto completed =
      resume ? contents.completed()
             : std::map<std::string, obs::Json>();
  supervise::Journal journal(journal_file, /*truncate=*/!resume);
  if (!resume) journal.write_header(header);
  if (resume && !completed.empty()) {
    std::cerr << "resuming from " << journal_file << ": "
              << completed.size() << " harness(es) already complete\n";
  }

  obs::Json results = header;
  results["supervised"] = true;
  obs::Json harnesses = obs::Json::object();

  const auto& all = all_harnesses();
  int failures = 0;
  std::size_t index = 0;
  for (const auto& info : all) {
    ++index;
    if (!selected(opt, info.name)) continue;
    std::cerr << "[" << index << "/" << all.size() << "] " << info.name
              << " ...";

    if (const auto done = completed.find(std::string(info.name));
        done != completed.end()) {
      obs::Json entry = done->second;
      entry["status"] = "skipped";
      harnesses[std::string(info.name)] = std::move(entry);
      std::cerr << " skipped (journal)\n";
      continue;
    }

    supervise::Options sup;
    sup.spec.argv = child_argv(opt, info.name);
    sup.spec.deadline_seconds = opt.timeout_seconds;
    sup.spec.grace_seconds = opt.grace_seconds;
    sup.max_attempts = opt.attempts;
    sup.backoff_base_seconds = opt.backoff_seconds;

    // Exit 0 is not enough: the child's stdout must be a parsable report
    // carrying every documented metric prefix (garbage or partial JSON
    // classifies the attempt as failed).
    std::optional<obs::Json> parsed;
    sup.validate = [&](const supervise::ChildResult& child) -> std::string {
      parsed.reset();
      try {
        obs::Json doc = obs::Json::parse(child.stdout_text);
        const obs::Report report =
            obs::Report::from_json(std::string(info.name), doc);
        const auto missing = missing_metrics(info, report);
        if (!missing.empty()) {
          std::string message = "missing required metric prefixes:";
          for (const auto& prefix : missing) message += " " + prefix;
          return message;
        }
        parsed = std::move(doc);
        return "";
      } catch (const Error& e) {
        return std::string("unparsable report: ") + e.what();
      }
    };
    // Journal every attempt as it settles — a kill between harnesses
    // loses at most the in-flight line.
    sup.on_attempt = [&](const supervise::Attempt& attempt,
                         std::size_t attempt_index) {
      supervise::JournalRecord record =
          record_of(info.name, attempt_index, attempt);
      if (attempt.status == supervise::Status::Ok && parsed) {
        record.report = *parsed;
      }
      journal.append(record);
    };

    const supervise::SuperviseResult outcome = supervise::run_supervised(sup);
    const supervise::Attempt& last = outcome.final_attempt();
    const std::string status = supervise::status_string(last);

    obs::Json supervisor = obs::Json::object();
    supervisor["attempts"] =
        static_cast<std::int64_t>(outcome.attempts.size());
    supervisor["wall_seconds"] = last.child.wall_seconds;
    supervisor["max_rss_kb"] = last.child.max_rss_kb;
    supervisor["user_cpu_seconds"] = last.child.user_cpu_seconds;
    supervisor["system_cpu_seconds"] = last.child.system_cpu_seconds;

    if (outcome.ok && parsed) {
      obs::Json entry = std::move(*parsed);
      entry["status"] = status;
      entry["supervise"] = std::move(supervisor);
      harnesses[std::string(info.name)] = std::move(entry);
      std::cerr << " " << util::fixed(last.child.wall_seconds, 2) << " s (ok"
                << (outcome.attempts.size() > 1
                        ? ", " + std::to_string(outcome.attempts.size()) +
                              " attempts"
                        : "")
                << ")\n";
    } else {
      ++failures;
      obs::Json entry = obs::Json::object();
      entry["figure"] = std::string(info.figure);
      entry["status"] = status;
      if (!last.detail.empty()) entry["detail"] = last.detail;
      entry["exit_code"] = last.child.exit_code;
      entry["signal"] = last.child.term_signal;
      if (!last.child.stderr_tail.empty()) {
        entry["stderr_tail"] = last.child.stderr_tail;
      }
      entry["supervise"] = std::move(supervisor);
      harnesses[std::string(info.name)] = std::move(entry);
      std::cerr << " " << status << " after " << outcome.attempts.size()
                << " attempt(s)";
      if (!last.detail.empty()) std::cerr << " — " << last.detail;
      std::cerr << '\n';
    }
  }
  return finish_run(opt, results, std::move(harnesses), failures);
}

// ------------------------------------------------------- in-process mode --

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
  return finish_run(opt, results, std::move(harnesses), failures);
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
  if (!opt.child.empty()) return run_child_mode(opt);
  if (opt.supervised) return run_supervised_fleet(opt);
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
