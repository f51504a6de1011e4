// Unit tests for the ML substrate: matrix algebra, datasets, and the five
// regression model families.
#include <gtest/gtest.h>

#include <cmath>

#include "ml/dataset.hpp"
#include "ml/gbrt.hpp"
#include "ml/linear.hpp"
#include "ml/matrix.hpp"
#include "ml/metrics.hpp"
#include "ml/mlp.hpp"
#include "ml/tobit.hpp"
#include "ml/tree.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace lumos::ml {
namespace {

/// y = 3 x0 - 2 x1 + 5 (+ optional noise).
Dataset linear_dataset(std::size_t n, double noise, std::uint64_t seed) {
  util::Rng rng(seed);
  Dataset d;
  d.x = Matrix(n, 2);
  d.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-2.0, 2.0);
    const double x1 = rng.uniform(-2.0, 2.0);
    d.x(i, 0) = x0;
    d.x(i, 1) = x1;
    d.y[i] = 3.0 * x0 - 2.0 * x1 + 5.0 + rng.normal(0.0, noise);
  }
  return d;
}

// ------------------------------------------------------------- Cholesky --

TEST(CholeskySolve, SolvesSpdSystem) {
  // A = [[4,2],[2,3]], b = [10, 9] -> x = [1.5, 2].
  Matrix a(2, 2);
  a(0, 0) = 4;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 3;
  const auto x = cholesky_solve(a, {10.0, 9.0});
  EXPECT_NEAR(x[0], 1.5, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(CholeskySolve, RejectsIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 5;
  a(1, 0) = 5;
  a(1, 1) = 1;  // not PD
  EXPECT_THROW(cholesky_solve(a, {1.0, 1.0}), InvalidArgument);
}

// --------------------------------------------------------- Standardizer --

TEST(Standardizer, ZeroMeanUnitVariance) {
  auto d = linear_dataset(500, 0.0, 2);
  Standardizer s(d.x);
  const auto z = s.transform(d.x);
  for (std::size_t j = 0; j < 2; ++j) {
    double mean = 0.0;
    for (std::size_t i = 0; i < z.rows(); ++i) mean += z(i, j);
    EXPECT_NEAR(mean / static_cast<double>(z.rows()), 0.0, 1e-9);
  }
}

TEST(Standardizer, ConstantColumnSafe) {
  Matrix x(3, 1, 42.0);
  Standardizer s(x);
  auto z = s.transform(x);
  EXPECT_DOUBLE_EQ(z(0, 0), 0.0);  // no division blow-up
}

// ----------------------------------------------------------- Regressors --

TEST(LinearRegression, RecoversExactLinearFunction) {
  const auto d = linear_dataset(200, 0.0, 3);
  LinearRegression model(0.0);
  model.fit(d);
  std::vector<double> row{1.0, -1.0};
  EXPECT_NEAR(model.predict(row), 3.0 + 2.0 + 5.0, 1e-6);
}

TEST(LinearRegression, RobustToNoise) {
  const auto d = linear_dataset(2000, 0.5, 4);
  LinearRegression model;
  model.fit(d);
  const auto preds = model.predict_all(d.x);
  EXPECT_GT(r2(d.y, preds), 0.95);
}

TEST(LinearRegression, PredictBeforeFitThrows) {
  LinearRegression model;
  EXPECT_THROW((void)model.predict(std::vector<double>{1.0}), InvalidArgument);
}

TEST(Tobit, UncensoredMatchesLinearRegression) {
  const auto d = linear_dataset(500, 0.2, 5);
  TobitRegression tobit;
  tobit.fit(d);
  LinearRegression lr;
  lr.fit(d);
  std::vector<double> row{0.5, 0.5};
  EXPECT_NEAR(tobit.predict(row), lr.predict(row), 0.3);
}

TEST(Tobit, CensoringCorrectsDownwardBias) {
  // True y = 2 x + 1; censor y at 2.0. Plain LR under-fits the slope;
  // Tobit with censoring should predict higher at large x.
  util::Rng rng(6);
  const std::size_t n = 800;
  Dataset d;
  d.x = Matrix(n, 1);
  d.y.resize(n);
  std::vector<bool> censored(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform(0.0, 2.0);
    double y = 2.0 * x + 1.0 + rng.normal(0.0, 0.2);
    if (y > 2.0) {
      y = 2.0;
      censored[i] = true;
    }
    d.x(i, 0) = x;
    d.y[i] = y;
  }
  LinearRegression lr;
  lr.fit(d);
  TobitRegression tobit;
  tobit.set_censoring(censored);
  tobit.fit(d);
  const std::vector<double> big{2.0};
  EXPECT_GT(tobit.predict(big), lr.predict(big) + 0.2);
}

TEST(RegressionTree, FitsStepFunction) {
  const std::size_t n = 400;
  Dataset d;
  d.x = Matrix(n, 1);
  d.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) / n;
    d.x(i, 0) = x;
    d.y[i] = x < 0.5 ? 1.0 : 9.0;
  }
  RegressionTree tree(TreeOptions{4, 4, 16});
  tree.fit(d);
  EXPECT_NEAR(tree.predict(std::vector<double>{0.2}), 1.0, 0.1);
  EXPECT_NEAR(tree.predict(std::vector<double>{0.8}), 9.0, 0.1);
  EXPECT_GT(tree.node_count(), 1u);
}

TEST(RegressionTree, PureLeafStopsSplitting) {
  Dataset d;
  d.x = Matrix(50, 1);
  d.y.assign(50, 3.0);
  RegressionTree tree;
  tree.fit(d);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{0.0}), 3.0);
}

TEST(GradientBoosting, BeatsMeanBaseline) {
  util::Rng rng(7);
  const std::size_t n = 600;
  Dataset d;
  d.x = Matrix(n, 2);
  d.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-1.0, 1.0);
    const double x1 = rng.uniform(-1.0, 1.0);
    d.x(i, 0) = x0;
    d.x(i, 1) = x1;
    d.y[i] = std::sin(3.0 * x0) + x1 * x1;  // nonlinear
  }
  GbrtOptions options;
  options.n_trees = 60;
  GradientBoosting model(options);
  model.fit(d);
  const auto preds = model.predict_all(d.x);
  EXPECT_GT(r2(d.y, preds), 0.8);
  EXPECT_EQ(model.tree_count(), 60u);
}

TEST(Mlp, LearnsLinearFunction) {
  const auto d = linear_dataset(800, 0.05, 8);
  MlpOptions options;
  options.epochs = 80;
  Mlp model(options);
  model.fit(d);
  const auto preds = model.predict_all(d.x);
  EXPECT_GT(r2(d.y, preds), 0.9);
}

TEST(Regressors, FitEmptyThrows) {
  Dataset empty;
  LinearRegression lr;
  EXPECT_THROW(lr.fit(empty), InvalidArgument);
  GradientBoosting gb;
  EXPECT_THROW(gb.fit(empty), InvalidArgument);
  Mlp mlp;
  EXPECT_THROW(mlp.fit(empty), InvalidArgument);
}

// -------------------------------------------------------------- Metrics --

TEST(MlMetrics, BasicValues) {
  const std::vector<double> truth{1.0, 2.0, 4.0};
  const std::vector<double> pred{1.0, 1.0, 8.0};
  EXPECT_DOUBLE_EQ(mae(truth, pred), (0.0 + 1.0 + 4.0) / 3.0);
  EXPECT_DOUBLE_EQ(mse(truth, pred), (0.0 + 1.0 + 16.0) / 3.0);
  EXPECT_DOUBLE_EQ(underestimate_rate(truth, pred), 1.0 / 3.0);
  // accuracy: 1, 0.5, 0.5 -> 2/3.
  EXPECT_NEAR(prediction_accuracy(truth, pred), 2.0 / 3.0, 1e-12);
}

TEST(MlMetrics, R2PerfectAndMean) {
  const std::vector<double> truth{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(r2(truth, truth), 1.0);
  const std::vector<double> mean_pred{2.0, 2.0, 2.0};
  EXPECT_NEAR(r2(truth, mean_pred), 0.0, 1e-12);
}

TEST(MlMetrics, EmptyThrows) {
  EXPECT_THROW((void)mse({}, {}), InvalidArgument);
  EXPECT_THROW((void)prediction_accuracy(std::vector<double>{1.0}, {}),
               InvalidArgument);
}

}  // namespace
}  // namespace lumos::ml
