// Minimal dense row-major matrix — just enough linear algebra for the
// runtime-prediction models (normal equations, MLP layers).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace lumos::ml {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const
      noexcept {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<const double> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<double> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solves the SPD system a x = b via Cholesky; throws InvalidArgument when
/// `a` is not positive definite. Consumes its arguments (in-place factor).
[[nodiscard]] std::vector<double> cholesky_solve(Matrix a,
                                                 std::vector<double> b);

}  // namespace lumos::ml
