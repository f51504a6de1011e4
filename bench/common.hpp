// Shared plumbing for the figure/table bench harnesses: checked parsing of
// the harness flags, study construction, and the exit-code ladder. The
// harness flags, parsed here for bench_runner (and forwarded verbatim to
// its --child processes), are:
//   --days D          override every system's synthesis window (default:
//                     each system's calibrated window — 120 d, 14 d Helios)
//   --seed S          RNG seed (default 42)
//   --systems a,b,c   restrict to a subset (unknown names are an error)
//   --ablation        run the harness's extra ablation sweep, if any
//   --smoke           tiny-run mode: harnesses cap their job counts
//
// Each harness implements `obs::Report run_<name>(const Args&,
// std::ostream&)`, declared in harnesses.hpp and compiled once into
// bench_runner, the only bench program.
//
// All bench processes exit with the unified codes below (0 ok, 2 usage,
// 3 runtime error, 4 injected fault) and ignore SIGPIPE, so the
// supervisor (bench_runner --supervised) can classify every ending.
#pragma once

#include <charconv>
#include <csignal>
#include <iostream>
#include <ostream>
#include <string>
#include <vector>

#include "core/lumos.hpp"
#include "util/failpoint.hpp"
#include "obs/report.hpp"
#include "synth/calibration.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace lumos::bench {

// Unified bench process exit codes. bench_runner (and its --child mode)
// maps errors onto these,
// and the supervisor maps them back onto journal statuses — notably
// kExitUsage is never retried (a malformed command line is not transient).
inline constexpr int kExitOk = 0;
inline constexpr int kExitCheckFailed = 1;  ///< bench_runner: harness failed
inline constexpr int kExitUsage = 2;        ///< bad flags / unknown names
inline constexpr int kExitRuntime = 3;      ///< lumos::Error at runtime
inline constexpr int kExitFault = 4;        ///< fault::InjectedFault

/// Benches write reports into pipes and files; a reader that disappears
/// must surface as a stream error at the write site, not kill the whole
/// harness with SIGPIPE mid-report. Call once at the top of main.
inline void ignore_sigpipe() { std::signal(SIGPIPE, SIG_IGN); }

/// The shared catch-ladder: maps an in-flight exception onto the unified
/// exit codes, printing the message.
inline int map_bench_exception(const char* argv0) {
  try {
    throw;
  } catch (const InvalidArgument& e) {
    std::cerr << argv0 << ": " << e.what() << '\n';
    return kExitUsage;
  } catch (const fault::InjectedFault& e) {
    std::cerr << argv0 << ": " << e.what() << '\n';
    return kExitFault;
  } catch (const Error& e) {
    std::cerr << argv0 << ": " << e.what() << '\n';
    return kExitRuntime;
  } catch (const std::exception& e) {
    std::cerr << argv0 << ": " << e.what() << '\n';
    return kExitRuntime;
  }
}

struct Args {
  core::StudyOptions study;
  bool ablation = false;
  /// Tiny-run mode: harnesses cap max_jobs so the whole suite finishes in
  /// seconds (the bench_runner --smoke ctest path).
  bool smoke = false;

  double days_or(double fallback) const {
    return study.duration_days.value_or(fallback);
  }
  /// Smoke-aware cap: `full` normally, at most `capped` under --smoke.
  std::size_t jobs_cap(std::size_t full, std::size_t capped) const {
    return smoke ? std::min(full, capped) : full;
  }
};

inline double parse_positive_double(const std::string& text,
                                    const char* flag) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !(value > 0.0)) {
    throw InvalidArgument(std::string(flag) + " expects a positive number, "
                          "got \"" + text + "\"");
  }
  return value;
}

inline std::uint64_t parse_u64(const std::string& text, const char* flag) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) {
    throw InvalidArgument(std::string(flag) + " expects a non-negative "
                          "integer, got \"" + text + "\"");
  }
  return value;
}

/// Canonical spec name for a --systems token; throws InvalidArgument (with
/// the calibration's message) for names no generator knows.
inline std::string canonical_system(std::string_view name) {
  return synth::calibration_for(name).spec.name;
}

/// Consumes argv[i] (and its value) if it is one of the harness flags
/// above, applying it to `args` and advancing `i` past the value. Returns
/// false, consuming nothing, for any other argument. Throws
/// InvalidArgument on a missing or malformed value or an unknown system.
inline bool parse_harness_flag(Args& args, int& i, int argc, char** argv) {
  const std::string arg = argv[i];
  const auto value = [&]() -> std::string {
    if (i + 1 >= argc) {
      throw InvalidArgument(arg + " requires a value");
    }
    return argv[++i];
  };
  if (arg == "--days") {
    args.study.duration_days = parse_positive_double(value(), "--days");
  } else if (arg == "--seed") {
    args.study.seed = parse_u64(value(), "--seed");
  } else if (arg == "--systems") {
    const std::string list = value();  // split views into this
    for (auto part : util::split(list, ',')) {
      args.study.systems.push_back(canonical_system(part));
    }
  } else if (arg == "--ablation") {
    args.ablation = true;
  } else if (arg == "--smoke") {
    args.smoke = true;
  } else {
    return false;
  }
  return true;
}

inline core::CrossSystemStudy make_study(const Args& args) {
  return core::CrossSystemStudy(args.study);
}

/// Prints the standard harness banner.
inline void banner(std::ostream& out, const std::string& what,
                   const std::string& expectation) {
  out << "==================================================\n"
      << what << '\n'
      << "Paper expectation: " << expectation << '\n'
      << "==================================================\n";
}

}  // namespace lumos::bench
