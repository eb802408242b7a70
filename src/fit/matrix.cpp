#include "fit/matrix.h"

#include <cmath>

#include "common/check.h"

namespace dcm::fit {

Matrix::Matrix(size_t rows, size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

double& Matrix::operator()(size_t r, size_t c) {
  DCM_DCHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double Matrix::operator()(size_t r, size_t c) const {
  DCM_DCHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

Matrix Matrix::transpose() const {
  Matrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  DCM_CHECK_MSG(cols_ == rhs.rows_, "matrix product shape mismatch");
  Matrix out(rows_, rhs.cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      // Exact-zero fast path (skips no-op row work), not a tolerance check.
      if (a == 0.0) continue;  // dcm-lint: allow(no-float-eq)
      for (size_t c = 0; c < rhs.cols_; ++c) out(r, c) += a * rhs(k, c);
    }
  }
  return out;
}

std::vector<double> Matrix::solve(const std::vector<double>& b) const {
  DCM_CHECK(rows_ == cols_);
  DCM_CHECK(b.size() == rows_);
  const size_t n = rows_;
  Matrix a = *this;
  std::vector<double> x = b;

  for (size_t col = 0; col < n; ++col) {
    // Partial pivot.
    size_t pivot = col;
    double best = std::fabs(a(col, col));
    for (size_t r = col + 1; r < n; ++r) {
      if (std::fabs(a(r, col)) > best) {
        best = std::fabs(a(r, col));
        pivot = r;
      }
    }
    if (best < 1e-300) return {};  // singular
    if (pivot != col) {
      for (size_t c = 0; c < n; ++c) std::swap(a(pivot, c), a(col, c));
      std::swap(x[pivot], x[col]);
    }
    // Eliminate below.
    for (size_t r = col + 1; r < n; ++r) {
      const double factor = a(r, col) / a(col, col);
      // Exact-zero fast path: already-eliminated entries need no row update.
      if (factor == 0.0) continue;  // dcm-lint: allow(no-float-eq)
      for (size_t c = col; c < n; ++c) a(r, c) -= factor * a(col, c);
      x[r] -= factor * x[col];
    }
  }
  // Back substitution.
  for (size_t i = n; i-- > 0;) {
    double sum = x[i];
    for (size_t c = i + 1; c < n; ++c) sum -= a(i, c) * x[c];
    x[i] = sum / a(i, i);
  }
  return x;
}

}  // namespace dcm::fit
