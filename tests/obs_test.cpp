// Tests for lumos::obs: instrument semantics, registry identity and
// reset, concurrent increments (run under the tsan preset), and the JSON
// model — golden strings, round-trips, parse errors, snapshot export.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace lumos::obs {
namespace {

// ---------------------------------------------------------- instruments --

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.add(0);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetOverwritesLastValue) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.5);
  EXPECT_EQ(g.value(), 3.5);
  g.set(1.0);  // plain set may lower
  EXPECT_EQ(g.value(), 1.0);
}

// ------------------------------------------------------------- registry --

TEST(Registry, NamedLookupIsStableIdentity) {
  Registry reg;
  Counter& a = reg.counter("events");
  Counter& b = reg.counter("events");
  EXPECT_EQ(&a, &b);
  Counter& other = reg.counter("other");
  EXPECT_NE(&a, &other);
  // Kinds are separate namespaces: a gauge "events" is a new instrument.
  Gauge& g = reg.gauge("events");
  g.set(1.0);
  EXPECT_EQ(a.value(), 0u);
}

TEST(Registry, SnapshotIsNameSortedAndSkipsNothing) {
  Registry reg;
  reg.counter("b").add(2);
  reg.counter("a").add(1);
  reg.gauge("depth").set(7.0);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a");
  EXPECT_EQ(snap.counters[0].value, 1u);
  EXPECT_EQ(snap.counters[1].name, "b");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, 7.0);
}

TEST(Registry, ResetZeroesButKeepsHandles) {
  Registry reg;
  Counter& c = reg.counter("events");
  c.add(5);
  reg.gauge("depth").set(2.0);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);  // same handle, zeroed
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);  // name survives reset
  EXPECT_EQ(snap.counters[0].value, 0u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, 0.0);
}

TEST(Registry, ClearRemovesInstrumentsEntirely) {
  // reset() keeps zero-valued ghosts in snapshots (the bug behind the
  // stale `sim.events: 0` sections in BENCH_results.json); clear() is the
  // section boundary that actually empties the registry.
  Registry reg;
  reg.counter("events").add(5);
  reg.gauge("depth").set(2.0);
  reg.clear();
  EXPECT_TRUE(reg.snapshot().empty());
  // Names are re-creatable afterwards, starting from scratch.
  reg.counter("events").add(1);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].value, 1u);
  EXPECT_TRUE(snap.gauges.empty());
}

TEST(Registry, MergeAddsCountersOverwritesGauges) {
  Registry a;
  a.counter("events").add(10);
  a.gauge("speed").set(1.0);

  Registry b;
  b.counter("events").add(32);
  b.counter("only_b").add(1);
  b.gauge("speed").set(9.0);

  Registry merged;
  merged.merge(a.snapshot());
  merged.merge(b.snapshot());
  const Snapshot snap = merged.snapshot();

  ASSERT_EQ(snap.counters.size(), 2u);  // name-sorted: events, only_b
  EXPECT_EQ(snap.counters[0].value, 42u);
  EXPECT_EQ(snap.counters[1].value, 1u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, 9.0);  // last merge wins
}

TEST(Registry, MergeIntoEmptyReproducesSnapshot) {
  Registry source;
  source.counter("events").add(7);
  source.gauge("speed").set(3.25);
  const Snapshot original = source.snapshot();

  Registry copy;
  copy.merge(original);
  const Snapshot replayed = copy.snapshot();
  EXPECT_EQ(replayed.counters, original.counters);
  EXPECT_EQ(replayed.gauges, original.gauges);
}

// Concurrent increments from the pool: totals must be exact (the tsan
// preset additionally proves the registry lookups race-free).
TEST(Registry, ConcurrentIncrementsAreExact) {
  Registry reg;
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kPerTask = 1000;
  {
    util::ThreadPool pool(4);
    pool.parallel_for(0, kTasks, [&](std::size_t) {
      // Lookup inside the task: exercises find-or-create under contention.
      Counter& c = reg.counter("shared");
      for (std::size_t i = 0; i < kPerTask; ++i) c.add();
      reg.gauge("mark").set(1.0);
    });
  }
  EXPECT_EQ(reg.counter("shared").value(), kTasks * kPerTask);
  EXPECT_EQ(reg.gauge("mark").value(), 1.0);
}

// ----------------------------------------------------------------- json --

TEST(Json, GoldenCompactAndPretty) {
  Json doc = Json::object();
  doc["b"] = 2;
  doc["a"] = Json::array();
  doc["a"].push_back(1.5);
  doc["a"].push_back("x");
  doc["a"].push_back(true);
  doc["n"] = Json();
  // Keys sort; doubles use shortest round-trip with a ".0"-style marker.
  EXPECT_EQ(doc.dump(-1), R"({"a":[1.5,"x",true],"b":2,"n":null})");
  EXPECT_EQ(Json(3.0).dump(-1), "3.0");
  EXPECT_EQ(Json(0.1).dump(-1), "0.1");
  EXPECT_EQ(Json::object().dump(-1), "{}");
  Json pretty = Json::object();
  pretty["k"] = 1;
  EXPECT_EQ(pretty.dump(2), "{\n  \"k\": 1\n}");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(Json("a\"b\\c\n\t\x01").dump(-1),
            R"("a\"b\\c\n\t\u0001")");
}

TEST(Json, RoundTripsItsOwnOutput) {
  Json doc = Json::object();
  doc["metrics"] = Json::object();
  doc["metrics"]["wait"] = 12.25;
  doc["metrics"]["count"] = std::int64_t{1} << 53;
  doc["list"] = Json::array();
  doc["list"].push_back(Json::object());
  doc["list"].push_back(-0.0078125);
  doc["ok"] = false;
  for (int indent : {-1, 0, 2, 4}) {
    EXPECT_EQ(Json::parse(doc.dump(indent)), doc) << "indent=" << indent;
  }
}

TEST(Json, ParsesEscapesAndNumbers) {
  const Json v = Json::parse(R"({"s":"a\u0041\n","x":-1.25e2,"i":-7})");
  EXPECT_EQ(v.find("s")->as_string(), "aA\n");
  EXPECT_DOUBLE_EQ(v.find("x")->as_double(), -125.0);
  EXPECT_EQ(v.find("i")->as_int(), -7);       // no decimal point => Int
  EXPECT_EQ(v.find("x")->kind(), Json::Kind::Double);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), InvalidArgument);
  EXPECT_THROW(Json::parse("{"), InvalidArgument);
  EXPECT_THROW(Json::parse("[1,]"), InvalidArgument);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), InvalidArgument);
  EXPECT_THROW(Json::parse("'single'"), InvalidArgument);
  EXPECT_THROW(Json::parse("nul"), InvalidArgument);
  EXPECT_THROW(Json::parse("\"\\ud800\""), InvalidArgument);  // lone surrogate
}

TEST(Json, CheckedAccessorsThrowOnKindMismatch) {
  const Json v = 1;
  EXPECT_THROW((void)v.as_string(), InvalidArgument);
  EXPECT_THROW((void)v.items(), InvalidArgument);
  EXPECT_EQ(v.as_double(), 1.0);  // Int widens to double
  EXPECT_EQ(Json().find("k"), nullptr);
}

// ------------------------------------------------------ snapshot export --

TEST(SnapshotJson, FollowsDocumentedSchema) {
  Registry reg;
  reg.counter("sim.events").add(10);
  reg.gauge("threads").set(4.0);
  const Json j = to_json(reg.snapshot());
  EXPECT_EQ(j.find("counters")->find("sim.events")->as_int(), 10);
  EXPECT_EQ(j.find("gauges")->find("threads")->as_double(), 4.0);
  // Exactly the two instrument sections (no timing section).
  EXPECT_EQ(j.entries().size(), 2u);
}

TEST(ReportJson, DomainMetricsSeparateFromObservability) {
  Report report;
  report.harness = "fig4_waiting";
  report.figure = "Figure 4";
  report.set("median_wait_s.Mira", 100.0);
  const Json j = report.to_json();
  EXPECT_EQ(j.find("figure")->as_string(), "Figure 4");
  EXPECT_DOUBLE_EQ(
      j.find("metrics")->find("median_wait_s.Mira")->as_double(), 100.0);
  // Empty snapshot => no counters/gauges sections; no wall time either.
  EXPECT_EQ(j.entries().size(), 2u);
  EXPECT_EQ(j.find("counters"), nullptr);
  // Same inputs, same document: what bench_runner --verify leans on.
  EXPECT_EQ(j.dump(), report.to_json().dump());
}

TEST(ReportJson, FromJsonRoundTripsDomainMetrics) {
  Report report;
  report.harness = "fig4_waiting";
  report.figure = "Figure 4";
  report.set("median_wait_s.Mira", 100.0);
  report.set("median_wait_s.Intrepid", 0.1234567890123456789);
  const Report restored = Report::from_json("fig4_waiting", report.to_json());
  EXPECT_EQ(restored.harness, "fig4_waiting");
  EXPECT_EQ(restored.figure, "Figure 4");
  // Bit-exact metric recovery is what the supervised runner's
  // in-process-vs-child equivalence guarantee rests on.
  EXPECT_EQ(restored.metrics, report.metrics);
}

// ------------------------------------------------------- atomic writing --

TEST(AtomicJson, WritesParsableFileAndCleansUpTemp) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("lumos_obs_atomic_" +
                     std::to_string(static_cast<long>(::getpid())) + ".json");
  std::filesystem::remove(path);
  Json doc = Json::object();
  doc["key"] = 7;
  write_json_atomic(doc, path.string());
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(Json::parse(buf.str()).find("key")->as_int(), 7);
  // The same-directory temp file was renamed away, not left behind.
  for (const auto& entry : std::filesystem::directory_iterator(
           path.parent_path())) {
    const std::string name = entry.path().filename().string();
    EXPECT_NE(name.rfind(path.filename().string() + ".tmp", 0), 0u)
        << "stale temp file: " << name;
  }
  std::filesystem::remove(path);
}

TEST(AtomicJson, OverwritesExistingFileAtomically) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("lumos_obs_atomic_over_" +
                     std::to_string(static_cast<long>(::getpid())) + ".json");
  Json first = Json::object();
  first["version"] = 1;
  write_json_atomic(first, path.string());
  Json second = Json::object();
  second["version"] = 2;
  write_json_atomic(second, path.string());
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(Json::parse(buf.str()).find("version")->as_int(), 2);
  std::filesystem::remove(path);
}

TEST(AtomicJson, UnwritableDirectoryThrowsWithoutLeavingTemp) {
  EXPECT_THROW(
      write_json_atomic(Json::object(), "/nonexistent/dir/out.json"),
      InvalidArgument);
}

TEST(AtomicJson, DashWritesToStdout) {
  // "-" must keep meaning stdout in the atomic variant too (the bench
  // runner forwards --out verbatim). Nothing to assert beyond "no throw
  // and no stray file": the document lands on the test's stdout.
  testing::internal::CaptureStdout();
  Json doc = Json::object();
  doc["k"] = 1;
  write_json_atomic(doc, "-");
  const std::string captured = testing::internal::GetCapturedStdout();
  EXPECT_EQ(Json::parse(captured).find("k")->as_int(), 1);
}

}  // namespace
}  // namespace lumos::obs
