// In-process entry points for every bench harness, plus the registry
// bench_runner iterates. Each figure/table .cpp defines its here-declared
// `run_<name>` function; the two micro harnesses (run_micro_sim /
// run_micro_ml) live in harnesses.cpp.
#pragma once

#include <iosfwd>
#include <string_view>
#include <vector>

#include "common.hpp"

namespace lumos::bench {

obs::Report run_table1_traces(const Args& args, std::ostream& out);
obs::Report run_fig1_geometries(const Args& args, std::ostream& out);
obs::Report run_fig2_corehours(const Args& args, std::ostream& out);
obs::Report run_fig3_utilization(const Args& args, std::ostream& out);
obs::Report run_fig4_waiting(const Args& args, std::ostream& out);
obs::Report run_fig5_wait_geometry(const Args& args, std::ostream& out);
obs::Report run_fig6_status(const Args& args, std::ostream& out);
obs::Report run_fig7_failure_geometry(const Args& args, std::ostream& out);
obs::Report run_fig8_user_repetition(const Args& args, std::ostream& out);
obs::Report run_fig9_queue_resources(const Args& args, std::ostream& out);
obs::Report run_fig10_queue_runtime(const Args& args, std::ostream& out);
obs::Report run_fig11_user_status(const Args& args, std::ostream& out);
obs::Report run_fig12_prediction(const Args& args, std::ostream& out);
obs::Report run_table2_adaptive_backfill(const Args& args, std::ostream& out);
obs::Report run_ext_prediction_backfill(const Args& args, std::ostream& out);
obs::Report run_ext_status_prediction(const Args& args, std::ostream& out);
obs::Report run_ext_fragmentation(const Args& args, std::ostream& out);
obs::Report run_ext_fault_aware(const Args& args, std::ostream& out);
obs::Report run_ext_lublin_baseline(const Args& args, std::ostream& out);
obs::Report run_ext_node_failures(const Args& args, std::ostream& out);
obs::Report run_ext_dag_hedging(const Args& args, std::ostream& out);
obs::Report run_ext_sweep_scaling(const Args& args, std::ostream& out);
obs::Report run_ext_stream_ingest(const Args& args, std::ostream& out);
obs::Report run_ext_serve_chaos(const Args& args, std::ostream& out);
obs::Report run_micro_sim(const Args& args, std::ostream& out);
obs::Report run_micro_ml(const Args& args, std::ostream& out);

struct HarnessInfo {
  std::string_view name;    ///< --only / JSON-entry name
  std::string_view figure;  ///< paper artefact ("Figure 4", "Table 2", ...)
  obs::Report (*run)(const Args& args, std::ostream& out);
  /// Metric-key prefixes that must match at least one emitted metric —
  /// the contract docs/FIGURES.md documents and bench_runner validates.
  std::vector<std::string_view> required_metrics;
};

/// Every harness, in paper order (figures, tables, extensions, micro).
const std::vector<HarnessInfo>& all_harnesses();

}  // namespace lumos::bench
