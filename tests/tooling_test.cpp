// Tests for the tooling layer: bootstrap CIs, trace transformations, the
// CSV figure exporter, and the lumos-lint domain-invariant checker.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "analysis/export.hpp"
#include "core/study.hpp"
#include "lint/lint.hpp"
#include "stats/bootstrap.hpp"
#include "stats/descriptive.hpp"
#include "trace/transform.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace lumos {
namespace {

// ------------------------------------------------------------ bootstrap --

TEST(Bootstrap, CiCoversTrueMedian) {
  util::Rng rng(9);
  std::vector<double> xs(400);
  for (auto& x : xs) x = rng.normal(50.0, 5.0);
  const auto ci = stats::bootstrap_median_ci(xs, 400, 0.95, 7);
  EXPECT_LE(ci.lo, ci.point);
  EXPECT_GE(ci.hi, ci.point);
  EXPECT_LT(ci.lo, 50.0 + 2.0);
  EXPECT_GT(ci.hi, 50.0 - 2.0);
  EXPECT_LT(ci.hi - ci.lo, 4.0);  // a 400-sample median CI is tight
}

TEST(Bootstrap, MeanCiWiderForHeavierTails) {
  util::Rng rng(10);
  std::vector<double> normal(300), heavy(300);
  for (auto& x : normal) x = rng.normal(10.0, 1.0);
  for (auto& x : heavy) x = rng.lognormal(1.0, 1.5);
  const auto ci_n = stats::bootstrap_mean_ci(normal, 300);
  const auto ci_h = stats::bootstrap_mean_ci(heavy, 300);
  EXPECT_GT(ci_h.hi - ci_h.lo, ci_n.hi - ci_n.lo);
}

TEST(Bootstrap, DeterministicForSeed) {
  const std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9};
  const auto a = stats::bootstrap_median_ci(xs, 100, 0.9, 55);
  const auto b = stats::bootstrap_median_ci(xs, 100, 0.9, 55);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
}

TEST(Bootstrap, RejectsBadInput) {
  EXPECT_THROW((void)stats::bootstrap_median_ci({}, 100), InvalidArgument);
  EXPECT_THROW((void)stats::bootstrap_median_ci(std::vector<double>{1.0}, 2),
               InvalidArgument);
}

// ----------------------------------------------------------- transforms --

trace::Trace two_user_trace() {
  trace::Trace t(trace::theta_spec());
  for (int i = 0; i < 6; ++i) {
    trace::Job j;
    j.submit_time = i * 10.0;
    j.run_time = 100.0;
    j.cores = 64;
    j.user = 100 + (i % 2) * 50;  // users 100 and 150
    t.add(j);
  }
  t.sort_by_submit();
  return t;
}

TEST(Transform, MergeDisjointUsers) {
  const auto a = two_user_trace();
  const auto b = two_user_trace();
  const auto merged = trace::merge(a, b);
  EXPECT_EQ(merged.size(), 12u);
  EXPECT_EQ(merged.user_count(), 4u);  // users offset apart
  EXPECT_TRUE(merged.is_sorted_by_submit());
  const auto shared = trace::merge(a, b, /*share_users=*/true);
  EXPECT_EQ(shared.user_count(), 2u);
}

TEST(Transform, MergeRejectsDifferentSystems) {
  trace::Trace a(trace::theta_spec());
  trace::Trace b(trace::mira_spec());
  EXPECT_THROW(trace::merge(a, b), InvalidArgument);
}

TEST(Transform, AnonymizeDensifiesAndPreservesStructure) {
  const auto t = two_user_trace();
  const auto anon = trace::anonymize_users(t);
  EXPECT_EQ(anon.size(), t.size());
  EXPECT_EQ(anon.user_count(), 2u);
  for (const auto& j : anon.jobs()) EXPECT_LT(j.user, 2u);
  // Same-user jobs stay same-user.
  EXPECT_EQ(anon[0].user, anon[2].user);
  EXPECT_NE(anon[0].user, anon[1].user);
  // Geometry untouched.
  EXPECT_DOUBLE_EQ(anon[3].run_time, t[3].run_time);
}

TEST(Transform, ScaleSizesClampsToCapacity) {
  const auto t = two_user_trace();
  const auto bigger = trace::scale_sizes(t, 1e9);
  for (const auto& j : bigger.jobs()) {
    EXPECT_EQ(j.cores, t.spec().primary_capacity());
  }
  const auto smaller = trace::scale_sizes(t, 1e-9);
  for (const auto& j : smaller.jobs()) EXPECT_EQ(j.cores, 1u);
  EXPECT_THROW(trace::scale_sizes(t, 0.0), InvalidArgument);
}

TEST(Transform, DilateArrivalsScalesGaps) {
  const auto t = two_user_trace();
  const auto slow = trace::dilate_arrivals(t, 3.0);
  const auto gaps_before = t.interarrival_times();
  const auto gaps_after = slow.interarrival_times();
  ASSERT_EQ(gaps_before.size(), gaps_after.size());
  for (std::size_t i = 0; i < gaps_before.size(); ++i) {
    EXPECT_DOUBLE_EQ(gaps_after[i], 3.0 * gaps_before[i]);
  }
}

// --------------------------------------------------------------- export --

TEST(Export, WritesAllFigureFiles) {
  const auto dir =
      (std::filesystem::temp_directory_path() / "lumos_export").string();
  std::filesystem::remove_all(dir);
  core::StudyOptions options;
  options.duration_days = 1.0;
  options.systems = {"Theta", "Philly"};
  const core::CrossSystemStudy study(options);
  study.export_csv(dir);
  for (const char* file :
       {"fig1a_runtime_cdf.csv", "fig1b_hourly.csv", "fig1c_cores_cdf.csv",
        "fig2_domination.csv", "fig3_utilization.csv", "fig4_wait_cdf.csv",
        "fig6_status.csv", "fig8_repetition.csv", "fig9_10_queue_mix.csv"}) {
    const auto path = std::filesystem::path(dir) / file;
    ASSERT_TRUE(std::filesystem::exists(path)) << file;
    std::ifstream in(path);
    std::string header;
    std::getline(in, header);
    EXPECT_NE(header.find("system"), std::string::npos) << file;
    std::string first;
    EXPECT_TRUE(static_cast<bool>(std::getline(in, first))) << file;
  }
  // Both systems appear in the runtime CDF.
  std::ifstream in(std::filesystem::path(dir) / "fig1a_runtime_cdf.csv");
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("Theta"), std::string::npos);
  EXPECT_NE(all.find("Philly"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(Export, HourlyHas24RowsPerSystem) {
  const auto dir =
      (std::filesystem::temp_directory_path() / "lumos_export2").string();
  std::filesystem::remove_all(dir);
  core::StudyOptions options;
  options.duration_days = 1.0;
  options.systems = {"Helios"};
  const core::CrossSystemStudy study(options);
  analysis::export_hourly(dir, study.arrivals());
  std::ifstream in(std::filesystem::path(dir) / "fig1b_hourly.csv");
  std::string line;
  int rows = -1;  // header
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 24);
  std::filesystem::remove_all(dir);
}

// ----------------------------------------------------------- lumos-lint --

TEST(LumosLint, FlagsBannedRngWithExactLocation) {
  const auto diags = lint::lint_source("synth/sampler.cpp",
                                       "#include \"synth/sampler.hpp\"\n"
                                       "int draw() {\n"
                                       "  std::random_device entropy;\n"
                                       "  return rand() % 7;\n"
                                       "}\n");
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].file, "synth/sampler.cpp");
  EXPECT_EQ(diags[0].line, 3);
  EXPECT_EQ(diags[0].rule, "banned-rng");
  EXPECT_EQ(diags[1].line, 4);
  EXPECT_EQ(diags[1].rule, "banned-rng");
  // Exact, greppable diagnostic format.
  EXPECT_EQ(lint::format(diags[0]).rfind("synth/sampler.cpp:3: [banned-rng]",
                                         0),
            0u);
}

TEST(LumosLint, FlagsRawThreadsAsyncAndDetach) {
  const auto diags = lint::lint_source(
      "analysis/sweep.cpp",
      "void run() {\n"
      "  std::thread worker([] {});\n"
      "  worker.detach();\n"
      "  auto f = std::async([] { return 1; });\n"
      "}\n");
  ASSERT_EQ(diags.size(), 3u);
  EXPECT_EQ(diags[0].line, 2);
  EXPECT_EQ(diags[1].line, 3);
  EXPECT_EQ(diags[2].line, 4);
  for (const auto& d : diags) EXPECT_EQ(d.rule, "raw-thread");
}

TEST(LumosLint, FlagsFloatOnlyInTimeAccountingLayers) {
  const std::string body = "double f(double t) { float dt = 0.5f; return t + dt; }\n";
  const auto in_sim = lint::lint_source("sim/clock.cpp", body);
  ASSERT_EQ(in_sim.size(), 1u);
  EXPECT_EQ(in_sim[0].rule, "float-time");
  EXPECT_EQ(in_sim[0].line, 1);
  // ml/ does reduced-precision math legitimately; the rule is scoped to
  // sim/, trace/, and core/.
  EXPECT_TRUE(lint::lint_source("ml/matrix.cpp", body).empty());
  EXPECT_FALSE(lint::lint_source("trace/swf.cpp", body).empty());
  EXPECT_FALSE(lint::lint_source("core/study.cpp", body).empty());
}

TEST(LumosLint, FlagsStdoutInLibraryCodeOnly) {
  const std::string body = "void p() { std::cout << 1; }\n";
  const auto diags = lint::lint_source("analysis/report.cpp", body);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "stdout-io");
  // The sanctioned sink and the non-library trees may print.
  EXPECT_TRUE(lint::lint_source("util/logging.cpp", body).empty());
  EXPECT_TRUE(lint::lint_source("tools/lumos_cli.cpp", body).empty());
  // Bench harnesses render into a caller-supplied stream (bench_runner
  // owns the binding to stdout); direct use is a violation.
  const auto bench = lint::lint_source("bench/table1_traces.cpp", body);
  ASSERT_EQ(bench.size(), 1u);
  EXPECT_EQ(bench[0].rule, "stdout-io");
}

TEST(LumosLint, StdoutAllowlistNamesFilesNotDirectories) {
  const std::string body = "void p() { std::cerr << 1; }\n";
  // The sanctioned stream owners: obs/json.cpp ("-" output path) and the
  // two bench entry points.
  EXPECT_TRUE(lint::lint_source("obs/json.cpp", body).empty());
  EXPECT_TRUE(lint::lint_source("bench/bench_runner.cpp", body).empty());
  EXPECT_TRUE(lint::lint_source("bench/common.hpp",
                                "#pragma once\n"
                                "inline void p() { std::cout << 1; }\n")
                  .empty());
  // Siblings in the same directories stay checked.
  const auto obs = lint::lint_source("obs/registry.cpp", body);
  ASSERT_EQ(obs.size(), 1u);
  EXPECT_EQ(obs[0].rule, "stdout-io");
}

TEST(LumosLint, BenchIsSubjectToRngAndThreadRules) {
  const auto rng = lint::lint_source("bench/micro_sim.cpp",
                                     "int jitter() { return rand(); }\n");
  ASSERT_EQ(rng.size(), 1u);
  EXPECT_EQ(rng[0].rule, "banned-rng");
  const auto thread = lint::lint_source(
      "bench/bench_runner.cpp", "void go() { std::thread t([] {}); }\n");
  ASSERT_EQ(thread.size(), 1u);
  EXPECT_EQ(thread[0].rule, "raw-thread");
}

TEST(LumosLint, LintTreePrefixSelectsRuleDomain) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "lumos_lint_prefix_test";
  fs::create_directories(dir);
  {
    std::ofstream out(dir / "common.hpp");
    out << "#pragma once\ninline void p() { std::cout << 1; }\n";
  }
  {
    std::ofstream out(dir / "extra.cpp");
    out << "void q() { std::cout << 2; }\n";
  }
  // With the bench/ prefix the allowlist recognises common.hpp and the
  // sibling stays a violation, reported under the prefixed path.
  const auto diags = lint::lint_tree(dir, "bench/");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].file, "bench/extra.cpp");
  EXPECT_EQ(diags[0].rule, "stdout-io");
  fs::remove_all(dir);
}

TEST(LumosLint, FlagsPriorityQueueInSimOutsideEventQueue) {
  const std::string body =
      "void f() { std::priority_queue<int> q; q.push(1); }\n";
  const auto in_sim = lint::lint_source("sim/scheduler.cpp", body);
  ASSERT_EQ(in_sim.size(), 1u);
  EXPECT_EQ(in_sim[0].rule, "sim-priority-queue");
  EXPECT_EQ(in_sim[0].line, 1);
  // The EventQueue heap is the one sanctioned use...
  EXPECT_TRUE(lint::lint_source("sim/event_queue.hpp",
                                "#pragma once\ninline void g() { "
                                "std::priority_queue<int> q; }\n")
                  .empty());
  // ...and only the header: the queue has no .cpp to exempt.
  const auto in_cpp = lint::lint_source("sim/event_queue.cpp", body);
  ASSERT_EQ(in_cpp.size(), 1u);
  EXPECT_EQ(in_cpp[0].rule, "sim-priority-queue");
  // The rule is scoped to sim/: other layers may order freely.
  EXPECT_TRUE(lint::lint_source("stats/topk.cpp", body).empty());
  EXPECT_TRUE(lint::lint_source("util/heap_util.cpp", body).empty());
  // Mentions in comments and strings never trip the token scan.
  EXPECT_TRUE(lint::lint_source("sim/notes.cpp",
                                "// std::priority_queue is banned here\n"
                                "const char* s = \"std::priority_queue\";\n")
                  .empty());
}

TEST(LumosLint, SanctionedImplementationsAreExempt) {
  EXPECT_TRUE(lint::lint_source("util/rng.cpp",
                                "unsigned seed() { std::random_device rd; "
                                "return rd(); }\n")
                  .empty());
  EXPECT_TRUE(lint::lint_source("util/thread_pool.cpp",
                                "void spawn() { std::thread t([] {}); "
                                "t.join(); }\n")
                  .empty());
}

TEST(LumosLint, PragmaOnceRequiredAfterLeadingComments) {
  // A guard-style header is flagged at the guard line...
  const auto guarded = lint::lint_source("sim/clock.hpp",
                                         "// Legacy header.\n"
                                         "#ifndef LUMOS_SIM_CLOCK_HPP\n"
                                         "#define LUMOS_SIM_CLOCK_HPP\n"
                                         "#endif\n");
  ASSERT_EQ(guarded.size(), 1u);
  EXPECT_EQ(guarded[0].rule, "pragma-once");
  EXPECT_EQ(guarded[0].line, 2);
  // ...while comments before #pragma once are fine, and .cpp files are
  // not checked for it.
  EXPECT_TRUE(lint::lint_source("sim/clock.hpp",
                                "// Doc comment.\n\n#pragma once\n")
                  .empty());
  EXPECT_TRUE(lint::lint_source("sim/clock.cpp", "int x = 1;\n").empty());
}

TEST(LumosLint, IncludeHygieneParentPathsAndDuplicates) {
  const auto diags = lint::lint_source("stats/ecdf.cpp",
                                       "#include \"../util/csv.hpp\"\n"
                                       "#include <vector>\n"
                                       "#include <vector>\n");
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].rule, "include-hygiene");
  EXPECT_EQ(diags[0].line, 1);
  EXPECT_NE(diags[0].message.find("parent-relative"), std::string::npos);
  EXPECT_EQ(diags[1].line, 3);
  EXPECT_NE(diags[1].message.find("duplicate"), std::string::npos);
}

TEST(LumosLint, IgnoresCommentsAndStringLiterals) {
  // Every banned token appears — but only in comments or literals, so the
  // stripped scan must stay clean.
  EXPECT_TRUE(lint::lint_source(
                  "sim/notes.cpp",
                  "// std::cout << rand(); std::thread t; float bad;\n"
                  "/* std::random_device in a block comment */\n"
                  "const char* kDoc = \"call rand() and std::cout\";\n"
                  "const char* kRaw = R\"(std::thread w; w.detach();)\";\n")
                  .empty());
}

TEST(LumosLint, FlagsNakedCatchAll) {
  const auto diags = lint::lint_source(
      "trace/loader.cpp",
      "void load() {\n"
      "  try {\n"
      "    parse();\n"
      "  } catch (...) {\n"
      "    log_and_continue();\n"
      "  }\n"
      "}\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "naked-catch-all");
  EXPECT_EQ(diags[0].line, 4);
}

TEST(LumosLint, CatchAllThatRethrowsIsClean) {
  EXPECT_TRUE(lint::lint_source("trace/loader.cpp",
                                "void load() {\n"
                                "  try { parse(); } catch (...) {\n"
                                "    cleanup();\n"
                                "    throw;\n"
                                "  }\n"
                                "}\n")
                  .empty());
}

TEST(LumosLint, CatchAllThatConvertsToTypedErrorIsClean) {
  EXPECT_TRUE(lint::lint_source(
                  "obs/writer.cpp",
                  "void save() {\n"
                  "  try { emit(); } catch (...) {\n"
                  "    throw InternalError(\"emit failed\");\n"
                  "  }\n"
                  "}\n")
                  .empty());
}

TEST(LumosLint, CatchAllThatCapturesCurrentExceptionIsClean) {
  // The ThreadPool idiom: stash the exception for a deferred rethrow on
  // the caller's thread.
  EXPECT_TRUE(lint::lint_source(
                  "analysis/sweep.cpp",
                  "void worker() {\n"
                  "  try { step(); } catch (...) {\n"
                  "    first_error = std::current_exception();\n"
                  "  }\n"
                  "}\n")
                  .empty());
}

TEST(LumosLint, CatchAllAllowlistsThreadPoolAndSkipsNonLibraryTrees) {
  const std::string swallow =
      "void f() { try { g(); } catch (...) { } }\n";
  // The pool's worker-loop boundary is the sanctioned swallower.
  EXPECT_TRUE(lint::lint_source("util/thread_pool.cpp", swallow).empty());
  EXPECT_TRUE(lint::lint_source("util/thread_pool.hpp",
                                "#pragma once\n" + swallow)
                  .empty());
  // tools/ and tests/ are outside the checked library surface.
  EXPECT_TRUE(lint::lint_source("tools/lumos_cli.cpp", swallow).empty());
  // Library siblings stay checked.
  EXPECT_FALSE(lint::lint_source("util/csv.cpp", swallow).empty());
  // bench harnesses are library-grade code too.
  EXPECT_FALSE(lint::lint_source("bench/table1_traces.cpp", swallow).empty());
}

TEST(LumosLint, CatchAllInCommentsAndStringsIgnored) {
  EXPECT_TRUE(lint::lint_source(
                  "sim/notes.cpp",
                  "// catch (...) { swallow(); }\n"
                  "const char* kDoc = \"catch (...) {}\";\n")
                  .empty());
}

TEST(LumosLint, FlagsRawExitInLibraryCode) {
  const auto diags = lint::lint_source(
      "trace/loader.cpp",
      "void fail(int code) {\n"
      "  std::exit(code);\n"
      "  abort();\n"
      "  std::quick_exit(1);\n"
      "  _Exit(2);\n"
      "}\n");
  ASSERT_EQ(diags.size(), 4u);
  for (const auto& d : diags) {
    EXPECT_EQ(d.rule, "raw-exit");
  }
  EXPECT_EQ(diags[0].line, 2);
  EXPECT_EQ(diags[3].line, 5);
}

TEST(LumosLint, RawExitExemptsMainTusAndPosixUnderscoreExit) {
  // A TU that defines main() owns its process: exit/abort are its call.
  EXPECT_TRUE(lint::lint_source("bench/tool.cpp",
                                "int main(int argc, char** argv) {\n"
                                "  if (argc < 2) std::exit(2);\n"
                                "  std::abort();\n"
                                "}\n")
                  .empty());
  // Async-signal-safe POSIX _exit(2) — the only safe call between fork
  // and exec — is deliberately outside the rule.
  EXPECT_TRUE(lint::lint_source("stream/spawn.cpp",
                                "void child() { _exit(127); }\n")
                  .empty());
  // tools/ and tests/ are outside the checked library surface.
  EXPECT_TRUE(lint::lint_source("tools/cli.cpp",
                                "void die() { std::exit(1); }\n")
                  .empty());
  // Mentions in comments and strings never trip the rule.
  EXPECT_TRUE(lint::lint_source(
                  "sim/notes.cpp",
                  "// calls std::exit(1) on failure\n"
                  "const char* kDoc = \"abort() if unset\";\n")
                  .empty());
}

TEST(LumosLint, RawStringDelimitersAndContentsAreStripped) {
  // d-char-seq raw strings: the banned tokens live inside
  // R"delim(...)delim" and a plain )" inside the body must not end the
  // literal early (that would leak `rand()` into the scan).
  EXPECT_TRUE(lint::lint_source(
                  "sim/notes.cpp",
                  "const char* a = R\"x(std::cout << rand();)x\";\n"
                  "const char* b = R\"re(quote)\" then rand() still inside)re\";\n")
                  .empty());
  // Code after the raw literal on the same line is still scanned.
  const auto diags = lint::lint_source(
      "sim/notes.cpp", "const char* c = R\"(text)\"; int r = rand();\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "banned-rng");
}

TEST(LumosLint, BackslashContinuationExtendsLineComments) {
  // A // comment ending in a backslash splices the next physical line
  // into the comment (translation phase 2): rand() on the spliced line
  // is commentary, not code.
  EXPECT_TRUE(lint::lint_source("sim/notes.cpp",
                                "// disabled: \\\n"
                                "int r = rand();\n")
                  .empty());
  // CRLF between the backslash and the newline still splices.
  EXPECT_TRUE(lint::lint_source("sim/notes.cpp",
                                "// disabled: \\\r\n"
                                "int r = rand();\n")
                  .empty());
  // The line after the spliced one is real code again.
  const auto diags = lint::lint_source("sim/notes.cpp",
                                       "// off: \\\n"
                                       "still comment\n"
                                       "int r = rand();\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 3);
}

TEST(LumosLint, SuppressionWithReasonSilencesOwnAndNextLine) {
  // Same line.
  EXPECT_TRUE(lint::lint_source(
                  "sim/seedy.cpp",
                  "int r = rand();  // lumos-lint: allow(banned-rng) "
                  "fixture exercises libc fallback\n")
                  .empty());
  // Line above.
  EXPECT_TRUE(lint::lint_source(
                  "sim/seedy.cpp",
                  "// lumos-lint: allow(banned-rng) fixture exercises "
                  "libc fallback\n"
                  "int r = rand();\n")
                  .empty());
}

TEST(LumosLint, SuppressionIsRuleScoped) {
  // An allow() for a different rule does not silence the finding.
  const auto diags = lint::lint_source(
      "sim/seedy.cpp",
      "// lumos-lint: allow(stdout-io) wrong rule\n"
      "int r = rand();\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "banned-rng");
}

TEST(LumosLint, ReasonlessSuppressionIsAFinding) {
  const auto diags = lint::lint_source("sim/seedy.cpp",
                                       "// lumos-lint: allow(banned-rng)\n"
                                       "int r = rand();\n");
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].rule, "lint-suppression");
  EXPECT_EQ(diags[1].rule, "banned-rng");
}

TEST(LumosLint, CleanFixtureReportsNothing) {
  const auto diags = lint::lint_source("sim/clean.hpp",
                                       "// A well-behaved header.\n"
                                       "#pragma once\n"
                                       "#include \"util/rng.hpp\"\n"
                                       "#include <vector>\n"
                                       "namespace lumos::sim {\n"
                                       "double advance(double now, "
                                       "util::Rng& rng);\n"
                                       "}  // namespace lumos::sim\n");
  EXPECT_TRUE(diags.empty());
}

}  // namespace
}  // namespace lumos
