#include "ml/dataset.hpp"

#include <cmath>

#include "util/error.hpp"

namespace lumos::ml {

Standardizer::Standardizer(const Matrix& x) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  mean_.assign(d, 0.0);
  std_.assign(d, 1.0);
  if (n == 0) return;
  for (std::size_t j = 0; j < d; ++j) {
    double m = 0.0;
    for (std::size_t i = 0; i < n; ++i) m += x(i, j);
    m /= static_cast<double>(n);
    double v = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double dx = x(i, j) - m;
      v += dx * dx;
    }
    v /= static_cast<double>(n);
    mean_[j] = m;
    std_[j] = v > 1e-12 ? std::sqrt(v) : 1.0;
  }
}

Matrix Standardizer::transform(const Matrix& x) const {
  LUMOS_REQUIRE(x.cols() == mean_.size(), "standardizer dims mismatch");
  Matrix out(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      out(i, j) = (x(i, j) - mean_[j]) / std_[j];
    }
  }
  return out;
}

void Standardizer::transform_row(std::span<double> row) const noexcept {
  for (std::size_t j = 0; j < row.size() && j < mean_.size(); ++j) {
    row[j] = (row[j] - mean_[j]) / std_[j];
  }
}

}  // namespace lumos::ml
