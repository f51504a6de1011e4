// Fig 11: per-user runtime distribution split by job status (violin
// medians/modes for the top submitting users).
#include <ostream>

#include "analysis/report.hpp"
#include "common.hpp"
#include "harnesses.hpp"
#include "util/table.hpp"
#include "util/time_util.hpp"

namespace lumos::bench {

namespace {

/// Mean of the per-user median runtime for one status (users without jobs
/// in that status are skipped); 0 when no user qualifies.
double mean_median(const analysis::UserStatusResult& r,
                   trace::JobStatus status) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& u : r.top_users) {
    const auto& summary = u.runtime[static_cast<std::size_t>(status)];
    if (summary.count == 0) continue;
    sum += summary.median;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

}  // namespace

obs::Report run_fig11_user_status(const Args& args, std::ostream& out) {
  banner(out, "Fig 11: per-user runtime by status (top 3 users per system)",
         "per user, Failed jobs are much shorter than Passed (early "
         "crashes) and Killed jobs much longer — separable distributions "
         "that make elapsed-time-aware prediction possible");
  const auto study = make_study(args);
  const auto res = study.user_statuses();
  out << analysis::render_user_status(res) << '\n';

  out << "Violin modes (highest-density runtime) per status:\n";
  util::TextTable t(
      {"System", "user", "Passed mode", "Failed mode", "Killed mode"});
  for (const auto& r : res) {
    int rank = 1;
    for (const auto& u : r.top_users) {
      auto mode = [&](trace::JobStatus s) -> std::string {
        const auto& v = u.violin[static_cast<std::size_t>(s)];
        return v.count ? util::format_duration(v.mode) : "-";
      };
      t.add_row({r.system, "U" + std::to_string(rank++),
                 mode(trace::JobStatus::Passed), mode(trace::JobStatus::Failed),
                 mode(trace::JobStatus::Killed)});
    }
  }
  out << t.render();

  obs::Report report;
  report.harness = "fig11_user_status";
  report.figure = "Figure 11";
  for (const auto& r : res) {
    const double passed = mean_median(r, trace::JobStatus::Passed);
    const double failed = mean_median(r, trace::JobStatus::Failed);
    const double killed = mean_median(r, trace::JobStatus::Killed);
    report.set("failed_vs_passed_median." + r.system,
               passed > 0.0 ? failed / passed : 0.0);
    report.set("killed_vs_passed_median." + r.system,
               passed > 0.0 ? killed / passed : 0.0);
  }
  return report;
}

}  // namespace lumos::bench
