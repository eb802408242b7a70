#include "fit/matrix.h"

#include <gtest/gtest.h>

namespace dcm::fit {
namespace {

TEST(MatrixTest, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 0) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 0), 7.0);
}

TEST(MatrixTest, Transpose) {
  Matrix m(2, 3);
  m(0, 1) = 5.0;
  m(1, 2) = -2.0;
  const Matrix t = m.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(t(2, 1), -2.0);
}

TEST(MatrixTest, Multiply) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  Matrix b(2, 2);
  b(0, 0) = 5;
  b(0, 1) = 6;
  b(1, 0) = 7;
  b(1, 1) = 8;
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(MatrixTest, SolveWellConditioned) {
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  const auto x = a.solve({5, 10});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(MatrixTest, SolveRequiresPivoting) {
  // Zero on the diagonal forces a row swap.
  Matrix a(2, 2);
  a(0, 0) = 0;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 0;
  const auto x = a.solve({3, 7});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(MatrixTest, SolveSingularReturnsEmpty) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;  // rank 1
  EXPECT_TRUE(a.solve({1, 2}).empty());
}

TEST(MatrixTest, SolveLargerSystem) {
  // A = L with known solution.
  const size_t n = 6;
  Matrix a(n, n);
  std::vector<double> truth(n);
  for (size_t i = 0; i < n; ++i) {
    truth[i] = static_cast<double>(i) - 2.5;
    for (size_t j = 0; j < n; ++j) {
      a(i, j) = 1.0 / (1.0 + static_cast<double>(i + j));  // Hilbert-like
    }
    a(i, i) += 2.0;  // diagonally dominant → well-conditioned
  }
  std::vector<double> b(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) b[i] += a(i, j) * truth[j];
  }
  const auto x = a.solve(b);
  ASSERT_EQ(x.size(), n);
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], truth[i], 1e-9);
}

}  // namespace
}  // namespace dcm::fit
