// Fig 12: job runtime prediction with vs without elapsed time — five
// models x three elapsed thresholds, per system. --ablation separates the
// elapsed feature from the survival clamp on the first system and
// publishes it as `ablation.<mode>.<model>.*.<elapsed>`.
#include <cmath>
#include <ostream>
#include <string>

#include "common.hpp"
#include "harnesses.hpp"
#include "predict/harness.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace lumos::bench {

obs::Report run_fig12_prediction(const Args& args_in, std::ostream& out) {
  Args args = args_in;
  if (args.study.systems.empty()) {
    // Default to one DL and one HPC trace (the contrast the paper draws).
    args.study.systems = {"Philly", "Mira"};
  }
  banner(out, "Fig 12: runtime prediction with/without elapsed time",
         "adding elapsed time cuts the Underestimate Rate sharply for every "
         "model (monotone in the elapsed fraction) with comparable or "
         "better Average Accuracy");

  obs::Report report;
  report.harness = "fig12_prediction";
  report.figure = "Figure 12";

  const auto study = make_study(args);
  for (const auto& trace : study.traces()) {
    predict::StudyConfig config;
    config.max_jobs = args.jobs_cap(12000, 2000);
    const auto result = predict::run_prediction_study(trace, config);
    out << "\nSystem " << result.system << " (avg runtime "
        << util::fixed(result.avg_runtime_s, 0) << " s):\n";
    util::TextTable t({"model", "elapsed", "underest base",
                       "underest +elapsed", "accuracy base",
                       "accuracy +elapsed", "test jobs"});
    for (auto model : config.models) {
      for (double frac : config.elapsed_fractions) {
        const auto& base = result.row(model, false, frac);
        const auto& with = result.row(model, true, frac);
        t.add_row({predict::to_string(model),
                   util::format("avg/%.0f", 1.0 / frac),
                   util::percent(base.underestimate_rate),
                   util::percent(with.underestimate_rate),
                   util::percent(base.accuracy), util::percent(with.accuracy),
                   std::to_string(base.test_jobs)});
      }
    }
    out << t.render();

    // Domain metrics: means over models at the largest elapsed fraction.
    const double frac = config.elapsed_fractions.back();
    double ub = 0.0, ue = 0.0, ab = 0.0, ae = 0.0;
    std::size_t n = 0;
    for (const auto& row : result.rows) {
      if (std::fabs(row.elapsed_fraction - frac) > 1e-9) continue;
      if (row.with_elapsed) {
        ue += row.underestimate_rate;
        ae += row.accuracy;
      } else {
        ub += row.underestimate_rate;
        ab += row.accuracy;
        ++n;
      }
    }
    if (n > 0) {
      const double dn = static_cast<double>(n);
      report.set("underestimate_base." + result.system, ub / dn);
      report.set("underestimate_elapsed." + result.system, ue / dn);
      report.set("accuracy_base." + result.system, ab / dn);
      report.set("accuracy_elapsed." + result.system, ae / dn);
    }
  }

  if (args.ablation) {
    // DESIGN.md §4.3: how much of the win comes from the elapsed feature
    // vs the survival clamp, on the first system with XGBoost + LR.
    out << "\nAblation: elapsed-time integration (first system):\n";
    util::TextTable t({"mode", "model", "elapsed", "underest", "accuracy"});
    const auto& trace = study.traces().front();
    for (auto mode : {predict::ElapsedMode::FeatureAndClamp,
                      predict::ElapsedMode::FeatureOnly,
                      predict::ElapsedMode::ClampOnly}) {
      predict::StudyConfig config;
      config.max_jobs = args.jobs_cap(8000, 2000);
      config.models = {predict::ModelKind::Xgboost,
                       predict::ModelKind::LinearReg};
      config.elapsed_mode = mode;
      const auto result = predict::run_prediction_study(trace, config);
      for (auto model : config.models) {
        for (double frac : config.elapsed_fractions) {
          const auto& with = result.row(model, true, frac);
          const std::string mode_name = to_string(mode);
          const std::string model_name = predict::to_string(model);
          t.add_row({mode_name, model_name,
                     util::format("avg/%.0f", 1.0 / frac),
                     util::percent(with.underestimate_rate),
                     util::percent(with.accuracy)});
          const std::string prefix =
              "ablation." + mode_name + "." + model_name + ".";
          const std::string elapsed = util::format(".avg%.0f", 1.0 / frac);
          report.set(prefix + "underestimate" + elapsed,
                     with.underestimate_rate);
          report.set(prefix + "accuracy" + elapsed, with.accuracy);
        }
      }
    }
    out << t.render();
  }
  return report;
}

}  // namespace lumos::bench
