#include "predict/harness.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "ml/gbrt.hpp"
#include "ml/linear.hpp"
#include "ml/metrics.hpp"
#include "ml/mlp.hpp"
#include "ml/regressor.hpp"
#include "ml/tobit.hpp"
#include "predict/last2.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace lumos::predict {

std::string to_string(ElapsedMode m) {
  switch (m) {
    case ElapsedMode::FeatureAndClamp: return "feature+clamp";
    case ElapsedMode::FeatureOnly: return "feature-only";
    case ElapsedMode::ClampOnly: return "clamp-only";
  }
  return "?";
}

std::string to_string(ModelKind m) {
  switch (m) {
    case ModelKind::Last2: return "Last2";
    case ModelKind::Tobit: return "Tobit";
    case ModelKind::Xgboost: return "XGBoost";
    case ModelKind::LinearReg: return "LR";
    case ModelKind::Mlp: return "MLP";
  }
  return "?";
}

namespace {

std::unique_ptr<ml::Regressor> make_model(ModelKind kind) {
  switch (kind) {
    case ModelKind::Tobit:
      return std::make_unique<ml::TobitRegression>();
    case ModelKind::Xgboost: {
      ml::GbrtOptions opt;
      opt.n_trees = 60;
      return std::make_unique<ml::GradientBoosting>(opt);
    }
    case ModelKind::LinearReg:
      return std::make_unique<ml::LinearRegression>(1e-3);
    case ModelKind::Mlp: {
      ml::MlpOptions opt;
      opt.epochs = 30;
      return std::make_unique<ml::Mlp>(opt);
    }
    case ModelKind::Last2:
      break;  // handled without the Regressor interface
  }
  throw InvalidArgument("Last2 has no ml::Regressor adapter");
}

/// Appends the elapsed feature to a base row.
std::vector<double> with_elapsed_row(const std::vector<double>& base,
                                     double elapsed_s) {
  std::vector<double> row = base;
  row.push_back(std::log1p(elapsed_s));
  return row;
}

}  // namespace

const StudyRow& StudyResult::row(ModelKind model, bool with_elapsed,
                                 double elapsed_fraction) const {
  for (const auto& r : rows) {
    if (r.model == model && r.with_elapsed == with_elapsed &&
        std::fabs(r.elapsed_fraction - elapsed_fraction) < 1e-9) {
      return r;
    }
  }
  throw InvalidArgument("no such study row: " + to_string(model));
}

StudyResult run_prediction_study(const trace::Trace& trace,
                                 const StudyConfig& config) {
  LUMOS_REQUIRE(trace.size() >= 50, "prediction study needs >= 50 jobs");
  StudyResult result;
  result.system = trace.spec().name;

  auto feats = extract_features(trace);
  if (config.max_jobs > 0 && feats.size() > config.max_jobs) {
    feats.resize(config.max_jobs);
  }

  double avg = 0.0;
  for (const auto& f : feats) avg += f.run_time;
  avg /= static_cast<double>(feats.size());
  result.avg_runtime_s = avg;

  const auto n_train = static_cast<std::size_t>(
      config.train_fraction * static_cast<double>(feats.size()));
  const std::span<const JobFeatures> train_feats(feats.data(), n_train);
  const std::span<const JobFeatures> test_feats(feats.data() + n_train,
                                                feats.size() - n_train);
  LUMOS_REQUIRE(!train_feats.empty() && !test_feats.empty(),
                "train/test split degenerate");

  // Elapsed training grid: 0 plus the evaluation thresholds, so the
  // +elapsed model learns the conditional distribution across the sweep.
  std::vector<double> thresholds;
  for (double f : config.elapsed_fractions) thresholds.push_back(f * avg);
  std::vector<double> train_grid{0.0};
  train_grid.insert(train_grid.end(), thresholds.begin(), thresholds.end());

  const ml::Dataset base_train = build_dataset(train_feats, {});
  std::vector<bool> censored;
  const ml::Dataset elapsed_train =
      build_dataset(train_feats, train_grid, &censored);

  const Last2 last2;

  for (ModelKind kind : config.models) {
    std::unique_ptr<ml::Regressor> base_model;
    std::unique_ptr<ml::Regressor> elapsed_model;
    if (kind != ModelKind::Last2) {
      LUMOS_INFO << "training " << to_string(kind) << " on "
                 << base_train.size() << "+" << elapsed_train.size()
                 << " rows";
      base_model = make_model(kind);
      elapsed_model = make_model(kind);
      if (kind == ModelKind::Tobit) {
        std::vector<bool> base_censored;
        (void)build_dataset(train_feats, {}, &base_censored);
        static_cast<ml::TobitRegression*>(base_model.get())
            ->set_censoring(base_censored);
        static_cast<ml::TobitRegression*>(elapsed_model.get())
            ->set_censoring(censored);
      }
      base_model->fit(base_train);
      elapsed_model->fit(elapsed_train);
    }

    for (std::size_t ti = 0; ti < thresholds.size(); ++ti) {
      const double T = thresholds[ti];
      const double frac = config.elapsed_fractions[ti];
      std::vector<double> truth, base_pred, elapsed_pred;
      for (const auto& f : test_feats) {
        if (f.run_time <= T) continue;  // fairness filter (§VI-A)
        truth.push_back(f.run_time);
        if (kind == ModelKind::Last2) {
          base_pred.push_back(last2.predict(f));
          elapsed_pred.push_back(config.elapsed_mode == ElapsedMode::ClampOnly
                                     ? std::max(last2.predict(f), T)
                                     : last2.predict_with_elapsed(f, T));
        } else {
          const double base_p =
              runtime_of_target(base_model->predict(f.values));
          base_pred.push_back(base_p);
          double p;
          switch (config.elapsed_mode) {
            case ElapsedMode::ClampOnly:
              p = std::max(base_p, T);
              break;
            case ElapsedMode::FeatureOnly:
              p = runtime_of_target(
                  elapsed_model->predict(with_elapsed_row(f.values, T)));
              break;
            case ElapsedMode::FeatureAndClamp:
            default:
              p = std::max(runtime_of_target(elapsed_model->predict(
                               with_elapsed_row(f.values, T))),
                           T);  // survival clamp
              break;
          }
          elapsed_pred.push_back(p);
        }
      }
      if (truth.empty()) continue;

      StudyRow base_row;
      base_row.model = kind;
      base_row.with_elapsed = false;
      base_row.elapsed_fraction = frac;
      base_row.elapsed_s = T;
      base_row.accuracy = ml::prediction_accuracy(truth, base_pred);
      base_row.underestimate_rate = ml::underestimate_rate(truth, base_pred);
      base_row.test_jobs = truth.size();
      result.rows.push_back(base_row);

      StudyRow er = base_row;
      er.with_elapsed = true;
      er.accuracy = ml::prediction_accuracy(truth, elapsed_pred);
      er.underestimate_rate = ml::underestimate_rate(truth, elapsed_pred);
      result.rows.push_back(er);
    }
  }
  return result;
}

}  // namespace lumos::predict
