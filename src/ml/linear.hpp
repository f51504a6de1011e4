// Ridge-regularised linear regression (normal equations + Cholesky).
//
// The paper's "LR" baseline (Hastie et al.). Features are standardised
// internally; a bias term is always included and never penalised.
#pragma once

#include "ml/regressor.hpp"

namespace lumos::ml {

class LinearRegression final : public Regressor {
 public:
  /// `l2` is the ridge penalty (0 = OLS; a tiny default keeps the normal
  /// equations well-conditioned on collinear features).
  explicit LinearRegression(double l2 = 1e-6) : l2_(l2) {}

  void fit(const Dataset& train) override;
  [[nodiscard]] double predict(std::span<const double> row) const override;
  [[nodiscard]] std::string name() const override { return "LR"; }

 private:
  double l2_;
  Standardizer scaler_;
  std::vector<double> weights_;  ///< d weights + bias
};

}  // namespace lumos::ml
