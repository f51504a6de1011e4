#include "ml/matrix.hpp"

#include <cmath>

#include "util/error.hpp"

namespace lumos::ml {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

std::vector<double> cholesky_solve(Matrix a, std::vector<double> b) {
  const std::size_t n = a.rows();
  LUMOS_REQUIRE(a.cols() == n && b.size() == n,
                "cholesky_solve needs a square system");
  // In-place Cholesky a = L L^T (lower triangle).
  for (std::size_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= a(j, k) * a(j, k);
    LUMOS_REQUIRE(d > 1e-12, "matrix is not positive definite");
    const double ljj = std::sqrt(d);
    a(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= a(i, k) * a(j, k);
      a(i, j) = s / ljj;
    }
  }
  // Forward solve L y = b.
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= a(i, k) * b[k];
    b[i] = s / a(i, i);
  }
  // Back solve L^T x = y.
  for (std::size_t ii = n; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= a(k, ii) * b[k];
    b[ii] = s / a(ii, ii);
  }
  return b;
}

}  // namespace lumos::ml
