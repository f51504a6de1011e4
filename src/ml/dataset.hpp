// Tabular datasets for the prediction models: feature matrix + target,
// and z-score standardisation.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "ml/matrix.hpp"

namespace lumos::ml {

struct Dataset {
  Matrix x;                     ///< n x d features
  std::vector<double> y;        ///< n targets
  std::vector<std::string> feature_names;

  [[nodiscard]] std::size_t size() const noexcept { return y.size(); }
  [[nodiscard]] std::size_t dims() const noexcept { return x.cols(); }
};

/// Per-feature standardisation fitted on one dataset, applied to others.
class Standardizer {
 public:
  Standardizer() = default;
  /// Fits means/stddevs per column (constant columns get stddev 1).
  explicit Standardizer(const Matrix& x);

  /// Returns (x - mean) / std column-wise.
  [[nodiscard]] Matrix transform(const Matrix& x) const;
  /// Transforms a single row in place.
  void transform_row(std::span<double> row) const noexcept;

  [[nodiscard]] const std::vector<double>& means() const noexcept {
    return mean_;
  }
  [[nodiscard]] const std::vector<double>& stddevs() const noexcept {
    return std_;
  }

 private:
  std::vector<double> mean_;
  std::vector<double> std_;
};

}  // namespace lumos::ml
