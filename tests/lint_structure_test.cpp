// Structural lumos_lint passes on fixture trees: layer DAG parsing,
// include-graph analysis (cycles, inversions, .cpp includes), and the
// LUMOS_HOT_PATH and LUMOS_SIGNAL_HANDLER body scanners.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/hotpath.hpp"
#include "lint/lint.hpp"
#include "lint/structure.hpp"
#include "util/error.hpp"

namespace lint = lumos::lint;

namespace {

std::vector<lint::SourceFile> tree(
    std::initializer_list<std::pair<const char*, const char*>> files) {
  std::vector<lint::SourceFile> out;
  for (const auto& [path, content] : files) out.push_back({path, content});
  return out;
}

int count_rule(const std::vector<lint::Diagnostic>& diags,
               std::string_view rule) {
  int n = 0;
  for (const auto& d : diags) n += d.rule == rule ? 1 : 0;
  return n;
}

// ------------------------------------------------------- parse_layers --

TEST(ParseLayers, AcceptsCommentsBlanksAndDeps) {
  const auto spec = lint::parse_layers(
      "# comment\n"
      "\n"
      "util:\n"
      "trace: util   # trailing comment\n"
      "sim: util trace\n");
  EXPECT_TRUE(spec.knows("util"));
  EXPECT_TRUE(spec.knows("sim"));
  EXPECT_FALSE(spec.knows("obs"));
  EXPECT_EQ(spec.allowed.at("sim"),
            (std::set<std::string>{"util", "trace"}));
  EXPECT_TRUE(spec.allowed.at("util").empty());
}

TEST(ParseLayers, RejectsMalformedLine) {
  EXPECT_THROW((void)lint::parse_layers("util\n"), lumos::InvalidArgument);
}

TEST(ParseLayers, RejectsUndeclaredDep) {
  EXPECT_THROW((void)lint::parse_layers("sim: util\n"),
               lumos::InvalidArgument);
}

TEST(ParseLayers, RejectsSelfDep) {
  EXPECT_THROW((void)lint::parse_layers("sim: sim\n"),
               lumos::InvalidArgument);
}

TEST(ParseLayers, RejectsDuplicateModule) {
  EXPECT_THROW((void)lint::parse_layers("util:\nutil:\n"),
               lumos::InvalidArgument);
}

TEST(ParseLayers, RejectsCyclicDeclaredGraph) {
  EXPECT_THROW((void)lint::parse_layers("a: b\nb: a\n"),
               lumos::InvalidArgument);
}

// ---------------------------------------------------- check_structure --

TEST(CheckStructure, CleanTreeHasNoFindings) {
  const auto spec = lint::parse_layers("util:\nsim: util\n");
  const auto diags = lint::check_structure(
      tree({{"util/rng.hpp", "#pragma once\n"},
            {"sim/engine.hpp", "#pragma once\n#include \"util/rng.hpp\"\n"}}),
      spec);
  EXPECT_TRUE(diags.empty());
}

TEST(CheckStructure, ReportsIncludeCycleOnceAtSmallestMember) {
  const auto spec = lint::parse_layers("sim: \n");
  const auto diags = lint::check_structure(
      tree({{"sim/a.hpp", "#include \"sim/b.hpp\"\n"},
            {"sim/b.hpp", "#include \"sim/c.hpp\"\n"},
            {"sim/c.hpp", "#include \"sim/a.hpp\"\n"}}),
      spec);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "include-cycle");
  EXPECT_EQ(diags[0].file, "sim/a.hpp");
  EXPECT_EQ(diags[0].line, 1);
  // The message carries the full chain, closing back on the anchor.
  EXPECT_NE(diags[0].message.find("sim/a.hpp -> sim/b.hpp -> sim/c.hpp -> "
                                  "sim/a.hpp"),
            std::string::npos);
}

TEST(CheckStructure, SelfIncludeIsACycle) {
  const auto spec = lint::parse_layers("sim: \n");
  const auto diags = lint::check_structure(
      tree({{"sim/a.hpp", "#include \"sim/a.hpp\"\n"}}), spec);
  ASSERT_EQ(count_rule(diags, "include-cycle"), 1);
}

TEST(CheckStructure, ReportsLayerInversion) {
  const auto spec = lint::parse_layers("util:\nsim: util\n");
  const auto diags = lint::check_structure(
      tree({{"util/rng.hpp", "#include \"sim/engine.hpp\"\n"},
            {"sim/engine.hpp", "#pragma once\n"}}),
      spec);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "layer-inversion");
  EXPECT_EQ(diags[0].file, "util/rng.hpp");
  EXPECT_NE(diags[0].message.find("'util' may not include 'sim'"),
            std::string::npos);
}

TEST(CheckStructure, ReportsIncludeOfTranslationUnit) {
  const auto spec = lint::parse_layers("sim: \n");
  const auto diags = lint::check_structure(
      tree({{"sim/a.cpp", "#include \"sim/b.cpp\"\n"},
            {"sim/b.cpp", "int x;\n"}}),
      spec);
  EXPECT_EQ(count_rule(diags, "include-cpp"), 1);
}

TEST(CheckStructure, ReportsUnknownModuleBothDirections) {
  const auto spec = lint::parse_layers("util:\n");
  // mystery/ is in the scanned set but not declared: flagged both as the
  // includer and as the included module.
  const auto diags = lint::check_structure(
      tree({{"util/a.hpp", "#include \"mystery/m.hpp\"\n"},
            {"mystery/m.hpp", "#include \"util/a.hpp\"\n"}}),
      spec);
  EXPECT_EQ(count_rule(diags, "layer-unknown-module"), 2);
}

TEST(CheckStructure, IgnoresThirdPartyQuotedIncludes) {
  const auto spec = lint::parse_layers("util:\n");
  const auto diags = lint::check_structure(
      tree({{"util/a.hpp", "#include \"gtest/gtest.h\"\n"}}), spec);
  EXPECT_TRUE(diags.empty());
}

TEST(CheckStructure, HonoursInlineSuppression) {
  const auto spec = lint::parse_layers("util:\nsim: util\n");
  const auto diags = lint::check_structure(
      tree({{"util/rng.hpp",
             "// lumos-lint: allow(layer-inversion) transitional, see #42\n"
             "#include \"sim/engine.hpp\"\n"},
            {"sim/engine.hpp", "#pragma once\n"}}),
      spec);
  EXPECT_EQ(count_rule(diags, "layer-inversion"), 0);
}

// ---------------------------------------------------- check_hot_paths --

TEST(HotPath, FlagsAllSixRules) {
  const auto diags = lint::check_hot_paths("sim/hot.cpp",
                                           R"(LUMOS_HOT_PATH void spin() {
  auto* p = new int[8];
  std::map<int, int> m;
  std::mutex mu;
  std::cout << 1;
  throw 1;
  std::regex re("x");
})");
  EXPECT_EQ(count_rule(diags, "hot-alloc"), 1);
  EXPECT_EQ(count_rule(diags, "hot-node-container"), 1);
  EXPECT_EQ(count_rule(diags, "hot-mutex"), 1);
  EXPECT_EQ(count_rule(diags, "hot-stream"), 1);
  EXPECT_EQ(count_rule(diags, "hot-throw"), 1);
  EXPECT_EQ(count_rule(diags, "hot-regex"), 1);
}

TEST(HotPath, UnmarkedFunctionIsNotScanned) {
  const auto diags = lint::check_hot_paths(
      "sim/cold.cpp", "void setup() { auto* p = new int[8]; (void)p; }\n");
  EXPECT_TRUE(diags.empty());
}

TEST(HotPath, BodyEndsAtMatchingBrace) {
  // The allocation after the marked body must not be attributed to it.
  const auto diags = lint::check_hot_paths("sim/hot.cpp",
                                           R"(LUMOS_HOT_PATH void hot() {
  if (true) { int x = 0; (void)x; }
  for (;;) { break; }
}
void cold() { auto* p = new int[8]; (void)p; })");
  EXPECT_TRUE(diags.empty());
}

TEST(HotPath, LambdaInsideBodyIsScanned) {
  const auto diags = lint::check_hot_paths("sim/hot.cpp",
                                           R"(LUMOS_HOT_PATH void hot() {
  auto fn = [&](int n) { return new int[n]; };
  (void)fn;
})");
  EXPECT_EQ(count_rule(diags, "hot-alloc"), 1);
}

TEST(HotPath, BracesInParametersDoNotConfuseBodyStart) {
  // Default argument with a braced init sits inside parens; the body is
  // still found and the allocation inside it is flagged.
  const auto diags = lint::check_hot_paths("sim/hot.cpp",
                                           R"(LUMOS_HOT_PATH int hot(std::pair<int,int> p = {1, 2}) {
  return *new int(p.first);
})");
  EXPECT_EQ(count_rule(diags, "hot-alloc"), 1);
}

TEST(HotPath, SuppressionWithReasonRemovesFinding) {
  const auto diags = lint::check_hot_paths("sim/hot.cpp",
                                           R"(LUMOS_HOT_PATH void hot() {
  // lumos-lint: allow(hot-throw) invariant guard, never on happy path
  if (false) throw 1;
})");
  EXPECT_EQ(count_rule(diags, "hot-throw"), 0);
  EXPECT_TRUE(diags.empty());
}

TEST(HotPath, ReasonlessSuppressionIsItselfAFinding) {
  const auto diags = lint::check_hot_paths("sim/hot.cpp",
                                           R"(LUMOS_HOT_PATH void hot() {
  // lumos-lint: allow(hot-throw)
  if (false) throw 1;
})");
  EXPECT_EQ(count_rule(diags, "hot-throw"), 1);
  EXPECT_EQ(count_rule(diags, "lint-suppression"), 1);
}

TEST(HotPath, MarkerOnDeclarationIsMisuse) {
  const auto diags = lint::check_hot_paths(
      "sim/hot.hpp", "LUMOS_HOT_PATH void hot();\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "hot-path-misuse");
}

TEST(HotPath, MarkerInCommentOrStringIgnored) {
  const auto diags = lint::check_hot_paths(
      "sim/doc.cpp",
      "// LUMOS_HOT_PATH void fake() { new int; }\n"
      "const char* s = \"LUMOS_HOT_PATH void fake2() { new int; }\";\n");
  EXPECT_TRUE(diags.empty());
}

TEST(HotPath, DefinitionSiteIsExempt) {
  const auto diags = lint::check_hot_paths(
      "util/annotations.hpp",
      "LUMOS_HOT_PATH void would_fail() { throw 1; }\n");
  EXPECT_TRUE(diags.empty());
}

TEST(HotPath, DiagnosticNamesTheFunction) {
  const auto diags = lint::check_hot_paths(
      "sim/hot.cpp", "LUMOS_HOT_PATH void spin_once() { throw 1; }\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("(in spin_once)"), std::string::npos);
}

// --------------------------------------------- check_signal_handlers --

TEST(SignalHandler, CleanAtomicStoreBodyPasses) {
  // The only thing a handler may do: store into a lock-free atomic.
  const auto diags = lint::check_signal_handlers(
      "util/signal_util.cpp",
      R"(LUMOS_SIGNAL_HANDLER void on_signal(int sig) {
  g_shutdown_signal.store(sig, std::memory_order_relaxed);
})");
  EXPECT_TRUE(diags.empty());
}

TEST(SignalHandler, FlagsEveryAsyncUnsafeOperation) {
  const auto diags = lint::check_signal_handlers(
      "util/signal_util.cpp",
      R"(LUMOS_SIGNAL_HANDLER void on_signal(int sig) {
  auto* p = new int(sig);
  std::lock_guard<std::mutex> lock(mu);
  std::cout << sig;
  throw 1;
})");
  EXPECT_EQ(count_rule(diags, "signal-alloc"), 1);
  EXPECT_EQ(count_rule(diags, "signal-mutex"), 1);
  EXPECT_EQ(count_rule(diags, "signal-stream"), 1);
  EXPECT_EQ(count_rule(diags, "signal-throw"), 1);
}

TEST(SignalHandler, LoggingMacrosAndPrintfAreStreams) {
  // The logging macros expand to stream writes (malloc + locks under the
  // hood); printf takes the async-signal-unsafe stdio lock.
  const auto diags = lint::check_signal_handlers(
      "util/signal_util.cpp",
      R"(LUMOS_SIGNAL_HANDLER void on_signal(int sig) {
  LUMOS_WARN("got %d", sig);
  printf("got %d\n", sig);
})");
  EXPECT_EQ(count_rule(diags, "signal-stream"), 2);
}

TEST(SignalHandler, MarkerOnDeclarationIsMisuse) {
  const auto diags = lint::check_signal_handlers(
      "util/signal_util.hpp", "LUMOS_SIGNAL_HANDLER void on_signal(int);\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "signal-handler-misuse");
}

TEST(SignalHandler, UnmarkedFunctionIsNotScanned) {
  const auto diags = lint::check_signal_handlers(
      "stream/ingest.cpp",
      "void emit() { std::cout << new int[8]; throw 1; }\n");
  EXPECT_TRUE(diags.empty());
}

TEST(SignalHandler, DefinitionSiteIsExempt) {
  const auto diags = lint::check_signal_handlers(
      "util/annotations.hpp",
      "LUMOS_SIGNAL_HANDLER void would_fail() { throw 1; }\n");
  EXPECT_TRUE(diags.empty());
}

}  // namespace
