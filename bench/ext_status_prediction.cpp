// Extension harness: job-status prediction from elapsed time (the §V-C
// observation made operational — Fig 11's separable per-user distributions
// imply a scheduler can predict whether a running job will pass).
#include <ostream>

#include "common.hpp"
#include "harnesses.hpp"
#include "predict/status_predictor.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace lumos::bench {

obs::Report run_ext_status_prediction(const Args& args_in,
                                      std::ostream& out) {
  Args args = args_in;
  if (args.study.systems.empty()) {
    args.study.systems = {"Philly", "BlueWaters"};
  }
  if (!args.study.duration_days) args.study.duration_days = 30.0;
  banner(out, "Extension: predicting final job status from elapsed time",
         "knowing a job has already run T seconds should improve doomed-job "
         "classification over the no-elapsed baseline, increasingly with T");

  obs::Report report;
  report.harness = "ext_status_prediction";
  report.figure = "Extension: status prediction";

  const auto study = make_study(args);
  for (const auto& trace : study.traces()) {
    predict::StatusStudyConfig config;
    config.max_jobs = args.jobs_cap(config.max_jobs, 4000);
    const auto result = predict::run_status_study(trace, config);
    out << "\nSystem " << result.system << " (avg runtime "
        << util::fixed(result.avg_runtime_s, 0) << " s):\n";
    util::TextTable t({"elapsed", "doomed rate", "accuracy base",
                       "accuracy +elapsed", "test jobs"});
    double gain = 0.0;
    for (const auto& row : result.rows) {
      gain += row.accuracy - row.base_accuracy;
      t.add_row({util::format("avg/%.0f", 1.0 / row.elapsed_fraction),
                 util::percent(row.doomed_rate),
                 util::percent(row.base_accuracy), util::percent(row.accuracy),
                 std::to_string(row.test_jobs)});
    }
    out << t.render();
    if (!result.rows.empty()) {
      report.set("accuracy_gain." + result.system,
                 gain / static_cast<double>(result.rows.size()));
      report.set("doomed_rate." + result.system,
                 result.rows.back().doomed_rate);
    }
  }
  return report;
}

}  // namespace lumos::bench
