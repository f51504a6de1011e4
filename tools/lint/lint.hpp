// lumos-lint: an offline checker for lumos domain invariants.
//
// Reproducibility and determinism are load-bearing for the paper's
// methodology, so a handful of project rules are enforced mechanically
// rather than by review:
//
//   banned-rng      rand()/srand()/std::random_device anywhere outside
//                   util/rng — all stochastic code must draw from the
//                   seeded util::Rng streams.
//   raw-thread      std::thread/std::jthread/std::async/.detach() outside
//                   util/thread_pool — concurrency goes through the pool
//                   so shutdown and exception semantics stay uniform.
//   stdout-io       std::cout/std::cerr/std::clog in library code (src/)
//                   or bench harnesses outside the explicit allowlist
//                   (util/logging, obs/json.cpp's "-" output path, and the
//                   two bench entry-point files) — everything else logs
//                   via LUMOS_* or renders into a caller-supplied stream.
//   float-time      `float` in sim/, trace/, or core/ — simulator time and
//                   core-hour accounting are double-only; float silently
//                   loses whole seconds past ~97 days of simulated time.
//   sim-priority-queue
//                   std::priority_queue in sim/ outside sim/event_queue.hpp
//                   — event ordering must flow through sim::EventQueue so
//                   the one documented event_before order (not heap
//                   insertion order) decides same-timestamp ties.
//   naked-catch-all `catch (...)` handlers that neither rethrow nor
//                   convert/capture the exception (throw, typed
//                   lumos::Error, or std::current_exception) — swallowing
//                   an unknown exception reports success on failure. The
//                   ThreadPool boundary is allowlisted.
//   raw-exit        exit()/abort()/quick_exit()/_Exit() in library code:
//                   tearing the process down skips destructors, pending
//                   flushes, and the exit-code taxonomy
//                   (bench/common.hpp). Only entry-point TUs — files that
//                   define `int main(` — own their process and may exit.
//                   Async-signal-safe POSIX `_exit(2)` (the post-fork
//                   idiom in bench/ext_serve_chaos.cpp) is deliberately
//                   not matched.
//   pragma-once     every header starts (after comments) with #pragma once.
//   include-hygiene no parent-relative ("../") or backslashed include
//                   paths, and no duplicate includes within a file.
//
// Structural passes live alongside this per-file engine:
//   structure.hpp   include-graph analysis — file-level include cycles,
//                   includes of .cpp files, and module layer inversions
//                   against the declared DAG in tools/lint/layers.txt.
//   hotpath.hpp     LUMOS_HOT_PATH function-body discipline — no heap
//                   allocation, node containers, locks, stream I/O,
//                   throw, or std::regex inside marked hot functions.
//   baseline.hpp    (file, rule)-count baseline with --ratchet semantics:
//                   pinned findings pass, new ones fail.
//
// Any rule can be suppressed inline, on the offending line or the line
// directly above it:
//     // lumos-lint: allow(<rule>) <reason>
// The reason is mandatory — a bare allow() is itself a finding
// (`lint-suppression`), so every exception in the tree documents why.
//
// The scanner strips comments and string/char literal contents first
// (including raw strings and `\`-spliced line comments), so mentions in
// documentation or messages do not trip the token rules.
// `lint_source` is the pure, unit-testable core; `lint_tree` walks a
// directory; the `lumos_lint` binary wraps the latter as a ctest case.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace lumos::lint {

struct Diagnostic {
  std::string file;     // path as passed to lint_source / tree-relative
  int line = 0;         // 1-based
  std::string rule;     // stable rule id, e.g. "banned-rng"
  std::string message;  // human-readable explanation
};

/// One source file, loaded for analysis. `rel_path` uses forward slashes
/// and is relative to the source root with the tree prefix applied (the
/// same convention as lint_source) — "sim/simulator.cpp",
/// "bench/common.hpp".
struct SourceFile {
  std::string rel_path;
  std::string content;
};

/// "file:line: [rule] message" — the one true diagnostic format.
[[nodiscard]] std::string format(const Diagnostic& d);

/// Returns `content` with comments and string/char-literal contents
/// blanked (newlines preserved), so token rules see only real code.
/// Handles //, /* */, "..." with escapes, '...', and R"delim(...)delim".
[[nodiscard]] std::string strip_for_scan(std::string_view content);

/// Lints one file's contents. `rel_path` uses forward slashes and is
/// interpreted relative to the source root (e.g. "sim/simulator.cpp",
/// "util/rng.hpp"); it selects which rules apply. Diagnostics come back
/// sorted by line.
[[nodiscard]] std::vector<Diagnostic> lint_source(std::string_view rel_path,
                                                  std::string_view content);

/// Removes diagnostics covered by an inline suppression in `content` —
/// `// lumos-lint: allow(<rule>) <reason>` on the diagnostic's own line
/// or the line immediately above — and appends a `lint-suppression`
/// diagnostic for every suppression that lacks a reason. Called by
/// lint_source and by the structural passes; exposed for tests.
void apply_suppressions(std::string_view rel_path, std::string_view content,
                        std::vector<Diagnostic>& diags);

/// Reads every .hpp/.cpp/.h/.cc under `root` (deterministic path order)
/// with `prefix` prepended to each relative path — the input format the
/// structural passes (structure.hpp, hotpath.hpp) consume, loaded once
/// and shared across passes. Throws lumos::InvalidArgument on IO errors.
[[nodiscard]] std::vector<SourceFile> load_tree(
    const std::filesystem::path& root, std::string_view prefix = "");

/// Lints every .hpp/.cpp under `root` (deterministic path order).
/// Diagnostic paths are relative to `root`, with `prefix` prepended before
/// rule selection — so a tree rooted at bench/ lints its files as
/// "bench/<file>" when called with prefix "bench/". Pass "" for a root
/// whose children are already top-level rule domains (src/).
[[nodiscard]] std::vector<Diagnostic> lint_tree(
    const std::filesystem::path& root, std::string_view prefix = "");

}  // namespace lumos::lint
