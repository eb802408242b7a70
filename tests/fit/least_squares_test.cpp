#include "fit/least_squares.h"

#include <gtest/gtest.h>

namespace dcm::fit {
namespace {

TEST(RSquaredTest, PerfectFitIsOne) {
  EXPECT_DOUBLE_EQ(r_squared({1, 2, 3}, {1, 2, 3}), 1.0);
}

TEST(RSquaredTest, MeanPredictorIsZero) {
  EXPECT_NEAR(r_squared({1, 2, 3}, {2, 2, 2}), 0.0, 1e-12);
}

TEST(RSquaredTest, WorseThanMeanIsNegative) {
  EXPECT_LT(r_squared({1, 2, 3}, {3, 2, 1}), 0.0);
}

TEST(RSquaredTest, ConstantObservations) {
  EXPECT_DOUBLE_EQ(r_squared({5, 5, 5}, {5, 5, 5}), 1.0);
  EXPECT_DOUBLE_EQ(r_squared({5, 5, 5}, {4, 5, 6}), 0.0);
}

}  // namespace
}  // namespace dcm::fit
