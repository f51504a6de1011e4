// obs::Report — the structured result of one bench harness run.
//
// Every field is a deterministic function of the harness inputs, so the
// bench runner's `--verify` mode compares whole entries:
//   metrics       — domain numbers (medians, shares, improvements) that a
//                   same-seed rerun must reproduce bit-for-bit. These are
//                   the values docs/FIGURES.md documents per harness.
//   observability — the registry snapshot taken after the harness ran
//                   (counters and gauges written from deterministic work).
// Wall-clock time is not part of a Report: perfbench/ measures time.
//
// `to_json()` emits the per-harness entry of the BENCH_results.json
// schema described in DESIGN.md ("Observability").
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "obs/json.hpp"
#include "obs/registry.hpp"

namespace lumos::obs {

struct Report {
  /// Harness name, e.g. "fig4_waiting"; keys the runner's JSON object.
  std::string harness;
  /// Paper artefact this reproduces, e.g. "Figure 4" or "Table 2".
  std::string figure;
  /// Deterministic domain metrics; same seed => same values.
  std::map<std::string, double> metrics;
  /// Registry snapshot scoped to this harness (runner resets in between).
  Snapshot observability;

  /// Records a metric, overwriting any previous value under `key`.
  void set(std::string_view key, double value);

  /// The per-harness JSON entry: {figure, metrics, counters, gauges}.
  [[nodiscard]] Json to_json() const;

  /// Rebuilds the domain fields (figure, metrics) from a per-harness
  /// JSON entry — the inverse of to_json() for what the supervised bench
  /// runner validates. The observability snapshot is NOT reconstructed
  /// (the supervisor folds the child's JSON in verbatim). Throws
  /// lumos::InvalidArgument on kind mismatches.
  [[nodiscard]] static Report from_json(std::string harness,
                                        const Json& entry);
};

}  // namespace lumos::obs
