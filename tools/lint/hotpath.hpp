// Marker-scoped function-body disciplines: hot paths and signal handlers.
//
// The simulator core is data-oriented — flat POD event entries, SoA job
// state — precisely so the per-event path does no hidden work. This
// pass keeps it that way mechanically. A function marked with
// `LUMOS_HOT_PATH` (src/util/annotations.hpp; expands to nothing) gets
// its body scanned, and these are findings inside it:
//
//   hot-alloc           new / make_unique / make_shared / malloc family —
//                       per-event heap traffic is the first thing that
//                       shows up in the event-throughput bench.
//   hot-node-container  constructing std::map/set/list/unordered_* —
//                       node-based containers allocate per element; hot
//                       state lives in the SoA vectors.
//   hot-mutex           mutex types and lock/lock_guard/unique_lock — the
//                       engine is single-threaded by design; studies run
//                       whole engines in parallel, never inside one.
//   hot-stream          iostream objects (cout/stringstream/fstream...) —
//                       formatting belongs in obs/trace, after the run.
//   hot-throw           `throw` — exceptional exits cost nothing until
//                       thrown, but a throw in the per-event path is a
//                       control-flow bug, not error handling. Genuine
//                       invariant checks carry an inline suppression
//                       with the invariant spelled out.
//   hot-regex           std::regex — never acceptable per event.
//
// The same body scanner powers the async-signal-safety discipline: a
// function marked `LUMOS_SIGNAL_HANDLER` (the handler run_ingest's
// graceful shutdown installs, util/signal_util.cpp) may only do what
// POSIX 2.4.3 allows — store into a lock-free atomic and return. Findings
// inside a marked handler body:
//
//   signal-alloc   new / make_unique / malloc family / free — malloc
//                  takes a lock the interrupted thread may hold.
//   signal-mutex   mutex types and lock guards — same deadlock, spelled
//                  out.
//   signal-stream  stdio/iostream and the LUMOS_* log macros — they
//                  buffer, lock, and allocate; set a flag, log outside.
//   signal-throw   `throw` — unwinding out of a signal handler is UB.
//   signal-handler-misuse  marker on a declaration instead of the
//                  definition.
//
// Mechanics: the scanner works on stripped content (strip_for_scan), finds
// each marker token, skips to the first '{' at parenthesis depth 0
// (the function body — so default arguments and noexcept(...) clauses are
// crossed correctly), and brace-matches to the body's end. Lambdas and
// nested blocks inside the body are part of it and are scanned too. A
// marker followed by ';' before any body is `hot-path-misuse` (marking a
// declaration checks nothing). Markers inside an already-marked body are
// ignored. util/annotations.hpp (the definition site) is exempt.
//
// All diagnostics honour `// lumos-lint: allow(<rule>) <reason>`.
#pragma once

#include <string_view>
#include <vector>

#include "lint/lint.hpp"

namespace lumos::lint {

/// Scans one file for LUMOS_HOT_PATH bodies and returns rule findings,
/// sorted by line. Pure; unit-testable on fixture strings.
[[nodiscard]] std::vector<Diagnostic> check_hot_paths(
    std::string_view rel_path, std::string_view content);

/// check_hot_paths over a loaded tree; suppressions applied, diagnostics
/// sorted by (file, line).
[[nodiscard]] std::vector<Diagnostic> check_hot_paths(
    const std::vector<SourceFile>& files);

/// Scans one file for LUMOS_SIGNAL_HANDLER bodies and returns
/// async-signal-safety findings, sorted by line. Pure; unit-testable.
[[nodiscard]] std::vector<Diagnostic> check_signal_handlers(
    std::string_view rel_path, std::string_view content);

/// check_signal_handlers over a loaded tree.
[[nodiscard]] std::vector<Diagnostic> check_signal_handlers(
    const std::vector<SourceFile>& files);

}  // namespace lumos::lint
