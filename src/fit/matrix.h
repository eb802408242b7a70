// Small dense row-major matrix — just enough linear algebra for the model
// fitting pipeline (normal equations, LM steps). Not a general BLAS.
#pragma once

#include <cstddef>
#include <vector>

namespace dcm::fit {

class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, double fill = 0.0);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& operator()(size_t r, size_t c);
  double operator()(size_t r, size_t c) const;

  Matrix transpose() const;
  Matrix operator*(const Matrix& rhs) const;

  /// Solves A x = b by Gaussian elimination with partial pivoting.
  /// A must be square with rows()==b.size(). Returns empty on singularity.
  std::vector<double> solve(const std::vector<double>& b) const;

 private:
  size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

}  // namespace dcm::fit
