// Tests for sim::sweep_shards — the determinism contract above all:
// sharded execution must be bit-identical to the serial reference, the
// merged observability snapshot must be a pure function of the inputs,
// and failures must surface deterministically.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "sim/sweep.hpp"
#include "synth/generator.hpp"
#include "util/error.hpp"

namespace lumos::sim {
namespace {

std::vector<trace::Trace> two_traces() {
  std::vector<trace::Trace> traces;
  synth::GeneratorOptions options;
  options.duration_days = 1.0;
  traces.push_back(synth::generate_system("Theta", options));
  traces.push_back(synth::generate_system("Philly", options));
  return traces;
}

std::vector<SweepPoint> grid_points() {
  std::vector<SweepPoint> points;
  for (std::size_t trace_index : {std::size_t{0}, std::size_t{1}}) {
    for (auto policy : {PolicyKind::Fcfs, PolicyKind::Sjf}) {
      for (auto kind : {BackfillKind::Easy, BackfillKind::AdaptiveRelaxed}) {
        SweepPoint point;
        point.trace_index = trace_index;
        point.config.policy = policy;
        point.config.backfill.kind = kind;
        point.label = std::to_string(trace_index) + "." +
                      std::string(to_string(policy)) + "." +
                      std::string(to_string(kind));
        points.push_back(point);
      }
    }
  }
  return points;
}

// Every instrument is deterministic, so snapshots compare exactly.
void expect_snapshot_equivalent(const obs::Snapshot& a,
                                const obs::Snapshot& b) {
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.gauges, b.gauges);
}

TEST(SweepShards, ShardedRunsBitIdenticalToSerial) {
  const auto traces = two_traces();
  const auto points = grid_points();

  SweepOptions serial_options;
  serial_options.threads = 1;
  const auto serial = sweep_shards(traces, points, serial_options);
  ASSERT_EQ(serial.shards.size(), points.size());

  for (std::size_t threads : {std::size_t{4}, std::size_t{8}}) {
    SweepOptions options;
    options.threads = threads;
    const auto sharded = sweep_shards(traces, points, options);
    ASSERT_EQ(sharded.shards.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      ASSERT_TRUE(sharded.shards[i].result == serial.shards[i].result)
          << "result diverged at point " << points[i].label << " with "
          << threads << " threads";
      ASSERT_TRUE(sharded.shards[i].metrics == serial.shards[i].metrics)
          << "metrics diverged at point " << points[i].label;
      expect_snapshot_equivalent(sharded.shards[i].observability,
                                 serial.shards[i].observability);
    }
    expect_snapshot_equivalent(sharded.merged, serial.merged);
  }
}

TEST(SweepShards, MergedCountersAreShardSums) {
  const auto traces = two_traces();
  std::vector<SweepPoint> points(2);
  points[0].trace_index = 0;
  points[1].trace_index = 1;
  const auto outcome = sweep_shards(traces, points);

  auto events_of = [](const obs::Snapshot& snap) -> std::uint64_t {
    for (const auto& c : snap.counters) {
      if (c.name == "sim.events") return c.value;
    }
    return 0;
  };
  const std::uint64_t merged = events_of(outcome.merged);
  EXPECT_GT(merged, 0u);
  EXPECT_EQ(merged, events_of(outcome.shards[0].observability) +
                        events_of(outcome.shards[1].observability));
}

TEST(SweepShards, ValidatesPointsBeforeRunningAny) {
  const auto traces = two_traces();
  std::vector<SweepPoint> points(3);
  points[2].trace_index = 7;  // out of range
  points[2].label = "broken-point";
  try {
    (void)sweep_shards(traces, points);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("broken-point"), std::string::npos);
  }
}

TEST(SweepShards, EmptyInputsYieldEmptyOutcome) {
  const auto traces = two_traces();
  const auto outcome = sweep_shards(traces, {});
  EXPECT_TRUE(outcome.shards.empty());
  EXPECT_TRUE(outcome.merged.empty());
}

}  // namespace
}  // namespace lumos::sim
