// Extension harness: crash-consistency chaos drill for the serve mode.
//
// Drives the real `lumos_serve` binary (located via the LUMOS_SERVE_BIN
// compile definition, overridable by the environment variable of the same
// name) through seeded kill-and-resume drills and asserts the crash-
// consistency contract of DESIGN.md §4g end to end:
//
//   1. generates a synthetic trace, renders it to an SWF file, and runs an
//      uninterrupted in-process ingest as the baseline report;
//   2. for each of three seeded kill points P: writes the file truncated
//      at P events, starts the daemon with --follow + periodic
//      checkpoints, polls the checkpoint document until its cursor has
//      stabilized at C = floor(P / E) * E events, SIGKILLs the daemon
//      (no warning, no flush — the worst case), appends the remaining
//      events, restarts, and requires: exit 0, a final report whose
//      deterministic metrics are IDENTICAL to the baseline, and exactly
//      total - C replayed events (strictly fewer than total — the
//      checkpoint did real work);
//   3. one graceful drill: SIGTERM instead of SIGKILL must flush a final
//      checkpoint at exactly P events (nothing lost), exit 0, and resume
//      to the identical report.
//
// The kill points are deterministic in --seed, and every kill lands on a
// checkpoint boundary by construction (the poll waits for the stable
// final cursor), so metrics — including replayed-event counts — are
// bit-reproducible and --verify-safe. Wall-clock recovery times land in
// gauges, outside the determinism contract.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.hpp"
#include "harnesses.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "stream/ingest.hpp"
#include "synth/generator.hpp"
#include "trace/swf.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

#ifndef LUMOS_SERVE_BIN
#define LUMOS_SERVE_BIN "lumos_serve"
#endif

namespace lumos::bench {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

std::string serve_binary() {
  if (const char* env = std::getenv("LUMOS_SERVE_BIN")) return env;
  return LUMOS_SERVE_BIN;
}

/// fork/exec the daemon with stdout+stderr sent to `log_path`; returns
/// the pid. The harness needs an *asynchronous* child (poll, then kill),
/// which is why this does not go through supervise::run_child.
pid_t spawn_serve(const std::vector<std::string>& args,
                  const std::string& log_path) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  // Flush everything pending: the child's freopen would otherwise flush
  // the inherited stdio buffer (the harness banner) to the real stdout.
  // lumos-lint: allow(stdout-io) fork hygiene, not logging
  std::cout.flush();
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw InternalError("ext_serve_chaos: fork failed");
  if (pid == 0) {
    if (std::freopen(log_path.c_str(), "a", stdout) == nullptr ||
        std::freopen(log_path.c_str(), "a", stderr) == nullptr) {
      _exit(127);
    }
    ::execv(argv[0], argv.data());
    _exit(127);  // exec failure; the parent sees exit code 127
  }
  return pid;
}

int wait_exit(pid_t pid, const char* what) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) {
    throw InternalError(std::string("ext_serve_chaos: waitpid failed for ") +
                        what);
  }
  if (!WIFEXITED(status)) {
    throw InternalError(std::string("ext_serve_chaos: ") + what +
                        " died on signal " +
                        std::to_string(WTERMSIG(status)));
  }
  return WEXITSTATUS(status);
}

/// Polls the checkpoint document until cursor.events == want (the stable
/// post-ingest value) or the deadline passes. The checkpoint is written
/// atomically, so every successful parse sees a complete document.
void await_checkpoint_events(const std::string& path, std::uint64_t want,
                             pid_t child, double deadline_s) {
  const auto start = Clock::now();
  for (;;) {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::ostringstream text;
      text << in.rdbuf();
      try {
        const obs::Json doc = obs::Json::parse(text.str());
        if (const obs::Json* cursor = doc.find("cursor")) {
          if (const obs::Json* events = cursor->find("events")) {
            if (static_cast<std::uint64_t>(events->as_int()) == want) {
              return;
            }
          }
        }
      } catch (const Error&) {
        // torn read impossible (atomic write) but an empty file mid-
        // creation is not; just poll again
      }
    }
    int status = 0;
    if (::waitpid(child, &status, WNOHANG) == child) {
      throw InternalError(
          "ext_serve_chaos: daemon exited while waiting for checkpoint "
          "(wanted " + std::to_string(want) + " events)");
    }
    if (std::chrono::duration<double>(Clock::now() - start).count() >
        deadline_s) {
      ::kill(child, SIGKILL);
      ::waitpid(child, &status, 0);
      throw InternalError(
          "ext_serve_chaos: checkpoint never reached " +
          std::to_string(want) + " events within deadline");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

obs::Json read_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw InternalError("ext_serve_chaos: cannot read " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return obs::Json::parse(text.str());
}

double counter_of(const obs::Json& report_entry, const std::string& name) {
  const obs::Json* counters = report_entry.find("counters");
  const obs::Json* value =
      counters != nullptr ? counters->find(name) : nullptr;
  if (value == nullptr) {
    throw InternalError("ext_serve_chaos: report lacks counter " + name);
  }
  return value->as_double();
}

void write_file(const std::string& path, std::string_view text,
                bool append) {
  std::ofstream out(path, append ? std::ios::binary | std::ios::app
                                 : std::ios::binary);
  if (!out || !(out << text)) {
    throw InternalError("ext_serve_chaos: cannot write " + path);
  }
}

}  // namespace

obs::Report run_ext_serve_chaos(const Args& args_in, std::ostream& out) {
  Args args = args_in;
  if (args.study.systems.empty()) args.study.systems = {"Theta"};
  banner(out, "Extension: serve-mode chaos drill (kill -9 and resume)",
         "a checkpointed daemon killed at any instant restarts, replays "
         "only the gap since its last checkpoint, and produces a final "
         "report identical to an uninterrupted run");

  obs::Report report;
  report.harness = "ext_serve_chaos";
  report.figure = "Extension: crash-consistent serve mode";

  // --- trace -> SWF text, split into header + per-job lines -----------
  synth::GeneratorOptions gen;
  gen.seed = args.study.seed;
  gen.duration_days = args.days_or(args.smoke ? 2.0 : 7.0);
  const trace::Trace trace =
      synth::generate_system(args.study.systems.front(), gen);
  if (trace.jobs().empty()) {
    throw InternalError("generated trace is empty");
  }
  std::ostringstream swf;
  trace::write_swf(swf, trace);
  const std::string full_text = swf.str();

  // Byte offset just past each job line (header comment lines excluded),
  // so "the file truncated at P events" is an exact byte prefix and the
  // later append extends it without rewriting anything — which keeps the
  // checkpoint's input fingerprint valid across the kill.
  std::vector<std::size_t> job_line_end;
  std::size_t line_start = 0;
  while (line_start < full_text.size()) {
    std::size_t nl = full_text.find('\n', line_start);
    if (nl == std::string::npos) nl = full_text.size() - 1;
    if (full_text[line_start] != ';') job_line_end.push_back(nl + 1);
    line_start = nl + 1;
  }
  const std::uint64_t total = job_line_end.size();
  const std::uint64_t cadence = std::max<std::uint64_t>(1, total / 20);

  const fs::path dir =
      fs::temp_directory_path() /
      ("lumos_chaos_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  // --- uninterrupted baseline (in-process, same loop the daemon runs) --
  const std::string baseline_swf = (dir / "baseline.swf").string();
  write_file(baseline_swf, full_text, /*append=*/false);
  stream::IngestOptions base_opts;
  base_opts.input_path = baseline_swf;
  base_opts.output_path = (dir / "baseline.json").string();
  base_opts.report_every_events = 0;
  const stream::IngestResult baseline = stream::run_ingest(base_opts);
  if (baseline.events != total) {
    throw InternalError("ext_serve_chaos: baseline ingested " +
                        std::to_string(baseline.events) + " of " +
                        std::to_string(total) + " events");
  }
  const obs::Json baseline_doc = read_json_file(base_opts.output_path);
  const obs::Json* baseline_entry = baseline_doc.find("lumos_serve");
  const obs::Json* baseline_metrics =
      baseline_entry != nullptr ? baseline_entry->find("metrics") : nullptr;
  if (baseline_metrics == nullptr) {
    throw InternalError("ext_serve_chaos: baseline report lacks metrics");
  }

  report.set("chaos.total_events", static_cast<double>(total));
  report.set("chaos.checkpoint_every", static_cast<double>(cadence));

  // --- seeded drills ---------------------------------------------------
  // Three SIGKILL points plus one graceful SIGTERM drill. Fractions come
  // from the seeded rng => deterministic in --seed, reproducible under
  // --verify.
  util::Rng rng(args.study.seed ^ 0xc7a05c7a05ULL);
  struct Drill {
    std::uint64_t kill_at_events;  ///< P: events in the truncated file
    bool graceful;                 ///< SIGTERM (flush) vs SIGKILL
  };
  std::vector<Drill> drills;
  for (int i = 0; i < 3; ++i) {
    const double frac = 0.25 + 0.6 * rng.uniform();
    drills.push_back(Drill{
        std::max<std::uint64_t>(cadence,
                                static_cast<std::uint64_t>(
                                    frac * static_cast<double>(total))),
        /*graceful=*/false});
  }
  drills.push_back(
      Drill{std::max<std::uint64_t>(cadence, total / 2), /*graceful=*/true});

  const std::string bin = serve_binary();
  auto& registry = obs::Registry::global();
  util::TextTable table(
      {"drill", "kind", "killed at", "checkpointed", "replayed",
       "identical"});

  for (std::size_t d = 0; d < drills.size(); ++d) {
    const Drill& drill = drills[d];
    const std::uint64_t p = drill.kill_at_events;
    const fs::path ddir = dir / ("drill_" + std::to_string(d));
    fs::create_directories(ddir);
    const std::string swf_path = (ddir / "stream.swf").string();
    const std::string report_path = (ddir / "report.json").string();
    const std::string checkpoint_path = (ddir / "checkpoint.json").string();
    const std::string log_path = (ddir / "serve.log").string();

    const std::size_t cut = job_line_end[p - 1];
    write_file(swf_path, std::string_view(full_text).substr(0, cut),
               /*append=*/false);

    // Phase 1: daemon tails the truncated file with periodic checkpoints.
    const std::vector<std::string> follow_args = {
        bin, "--in", swf_path, "--out", report_path,
        "--checkpoint", checkpoint_path,
        "--checkpoint-every", std::to_string(cadence),
        "--every", "0", "--follow",
        "--idle-timeout-s", "600", "--poll-interval-s", "0.02"};
    const pid_t pid = spawn_serve(follow_args, log_path);

    // The last cadence checkpoint before the cut is the stable value the
    // poll waits for; killing after it makes the replay count exact.
    const std::uint64_t checkpointed = (p / cadence) * cadence;
    const auto phase1_start = Clock::now();
    if (drill.graceful) {
      await_checkpoint_events(checkpoint_path, checkpointed, pid, 60.0);
      ::kill(pid, SIGTERM);
      const int code = wait_exit(pid, "graceful daemon");
      if (code != 0) {
        throw InternalError(
            "ext_serve_chaos: graceful shutdown exited with code " +
            std::to_string(code));
      }
    } else {
      await_checkpoint_events(checkpoint_path, checkpointed, pid, 60.0);
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
    registry.histogram("chaos.phase1_seconds")
        .observe(std::chrono::duration<double>(Clock::now() - phase1_start)
                     .count());

    // A graceful SIGTERM flushes a final checkpoint covering everything
    // it consumed (all p events); a SIGKILL leaves the last cadence one.
    const std::uint64_t resumed = drill.graceful ? p : checkpointed;
    {
      const obs::Json cp = read_json_file(checkpoint_path);
      const std::uint64_t cursor_events = static_cast<std::uint64_t>(
          cp.find("cursor")->find("events")->as_int());
      if (cursor_events != resumed) {
        throw InternalError(
            "ext_serve_chaos: drill " + std::to_string(d) +
            " checkpoint covers " + std::to_string(cursor_events) +
            " events, expected " + std::to_string(resumed));
      }
    }

    // Phase 2: grow the file to full length, restart, run to completion.
    write_file(swf_path, std::string_view(full_text).substr(cut),
               /*append=*/true);
    const auto recovery_start = Clock::now();
    const std::vector<std::string> resume_args = {
        bin, "--in", swf_path, "--out", report_path,
        "--checkpoint", checkpoint_path,
        "--checkpoint-every", std::to_string(cadence),
        "--every", "0"};
    const pid_t pid2 = spawn_serve(resume_args, log_path);
    const int code = wait_exit(pid2, "resumed daemon");
    if (code != 0) {
      throw InternalError("ext_serve_chaos: resumed daemon exited with " +
                          std::to_string(code));
    }
    registry.histogram("chaos.recovery_seconds")
        .observe(
            std::chrono::duration<double>(Clock::now() - recovery_start)
                .count());

    // Contract: identical metrics, exact replay accounting.
    const obs::Json final_doc = read_json_file(report_path);
    const obs::Json* entry = final_doc.find("lumos_serve");
    const obs::Json* metrics =
        entry != nullptr ? entry->find("metrics") : nullptr;
    const bool identical =
        metrics != nullptr && baseline_metrics != nullptr &&
        *metrics == *baseline_metrics;
    const double replayed = counter_of(*entry, "stream.replayed_events");
    const double resumed_ctr = counter_of(*entry, "stream.resumed_events");
    const std::string key = "chaos.drill" + std::to_string(d);
    report.set(key + ".report_identical", identical ? 1.0 : 0.0);
    report.set(key + ".replayed_events", replayed);
    report.set(key + ".resumed_events", resumed_ctr);
    table.add_row({std::to_string(d),
                   drill.graceful ? "SIGTERM" : "SIGKILL",
                   std::to_string(p), std::to_string(resumed),
                   std::to_string(static_cast<std::uint64_t>(replayed)),
                   identical ? "yes" : "NO"});
    if (!identical) {
      throw InternalError("ext_serve_chaos: drill " + std::to_string(d) +
                          " final report differs from baseline");
    }
    if (resumed_ctr != static_cast<double>(resumed) ||
        replayed != static_cast<double>(total - resumed) ||
        replayed >= static_cast<double>(total)) {
      throw InternalError(
          "ext_serve_chaos: drill " + std::to_string(d) +
          " replay accounting wrong (resumed " +
          std::to_string(resumed_ctr) + ", replayed " +
          std::to_string(replayed) + ", total " + std::to_string(total) +
          ")");
    }
  }

  report.set("chaos.drills", static_cast<double>(drills.size()));
  registry.counter("chaos.drills").add(drills.size());

  out << table.render();
  out << total << " events, checkpoint every " << cadence
      << "; every drill resumed to a report identical to the "
       "uninterrupted baseline\n";
  fs::remove_all(dir);
  return report;
}

}  // namespace lumos::bench
