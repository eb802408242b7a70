#include "model/concurrency_model.h"

#include <gtest/gtest.h>

#include <cmath>

namespace dcm::model {
namespace {

// The paper's Table I parameters are the canonical fixtures.
const ServiceTimeParams kTomcat{2.84e-2, 9.87e-3, 4.54e-5};
const ServiceTimeParams kMysql{7.19e-3, 5.04e-3, 1.65e-6};

TEST(ServiceTimeTest, Eq5ReducesToS0AtOneThread) {
  EXPECT_DOUBLE_EQ(inflated_service_time(kTomcat, 1.0), kTomcat.s0);
  EXPECT_DOUBLE_EQ(inflated_service_time(kMysql, 1.0), kMysql.s0);
}

TEST(ServiceTimeTest, Eq5GrowsMonotonically) {
  double prev = 0.0;
  for (int n = 1; n <= 100; ++n) {
    const double s = inflated_service_time(kTomcat, n);
    EXPECT_GT(s, prev);
    prev = s;
  }
}

TEST(ServiceTimeTest, Eq6EffectiveTimeHasInteriorMinimum) {
  const double at_knee = effective_service_time(kTomcat, 20.0);
  EXPECT_LT(at_knee, effective_service_time(kTomcat, 1.0));
  EXPECT_LT(at_knee, effective_service_time(kTomcat, 100.0));
}

TEST(ServiceTimeTest, ThroughputIsReciprocalOfEffectiveTime) {
  for (const double n : {1.0, 10.0, 50.0}) {
    EXPECT_NEAR(server_throughput(kMysql, n) * effective_service_time(kMysql, n), 1.0, 1e-12);
  }
}

TEST(ConcurrencyModelTest, OptimalConcurrencyClosedForm) {
  ConcurrencyModel tomcat{kTomcat, 1.0, 1, 1.0};
  EXPECT_NEAR(tomcat.optimal_concurrency(), std::sqrt((kTomcat.s0 - kTomcat.alpha) / kTomcat.beta),
              1e-12);
  EXPECT_NEAR(tomcat.optimal_concurrency(), 20.2, 0.2);  // Table I: 20

  ConcurrencyModel mysql{kMysql, 1.0, 1, 2.0};
  EXPECT_NEAR(mysql.optimal_concurrency(), 36.1, 0.3);  // Table I: 36
}

TEST(ConcurrencyModelTest, IntegerOptimumMatchesContinuous) {
  ConcurrencyModel model{kTomcat, 1.0, 1, 1.0};
  const int nb = model.optimal_concurrency_int();
  EXPECT_NEAR(nb, model.optimal_concurrency(), 1.0);
  // It is a genuine argmax.
  EXPECT_GE(model.throughput(nb), model.throughput(nb - 1));
  EXPECT_GE(model.throughput(nb), model.throughput(nb + 1));
}

TEST(ConcurrencyModelTest, IntegerOptimumIsTheEq7Knee) {
  ConcurrencyModel tomcat{kTomcat, 1.0, 1, 1.0};
  EXPECT_NEAR(tomcat.optimal_concurrency_int(500), 20, 1);  // Table I: Tomcat N_b = 20
}

TEST(ConcurrencyModelTest, IntegerOptimumTieBreaksToSmaller) {
  // S0 = β·n(n+1) makes Eq. 7 exactly flat between n = 3 and 4:
  // 3 / (12 + 1·3·2) == 4 / (12 + 1·4·3) == 1/6.
  ConcurrencyModel flat{{12.0, 0.0, 1.0}, 1.0, 1, 1.0};
  ASSERT_EQ(flat.throughput(3.0), flat.throughput(4.0));
  EXPECT_EQ(flat.optimal_concurrency_int(10), 3);
}

TEST(ConcurrencyModelTest, IntegerOptimumWithLimitOneIsOne) {
  ConcurrencyModel tomcat{kTomcat, 1.0, 1, 1.0};
  EXPECT_EQ(tomcat.optimal_concurrency_int(1), 1);
}

TEST(ConcurrencyModelTest, Eq8MatchesThroughputAtOptimum) {
  ConcurrencyModel model{kMysql, 1.0, 1, 2.0};
  EXPECT_NEAR(model.max_throughput(), model.throughput(model.optimal_concurrency()), 1e-9);
}

TEST(ConcurrencyModelTest, ThroughputScalesWithGammaAndServers) {
  ConcurrencyModel one{kMysql, 1.0, 1, 1.0};
  ConcurrencyModel three{kMysql, 1.0, 3, 1.0};
  ConcurrencyModel corrected{kMysql, 0.9, 3, 1.0};
  EXPECT_NEAR(three.throughput(36.0), 3.0 * one.throughput(36.0), 1e-9);
  EXPECT_NEAR(corrected.throughput(36.0), 2.7 * one.throughput(36.0), 1e-9);
}

TEST(ConcurrencyModelTest, VisitRatioDividesThroughput) {
  ConcurrencyModel v1{kMysql, 1.0, 1, 1.0};
  ConcurrencyModel v2{kMysql, 1.0, 1, 2.0};
  EXPECT_NEAR(v1.throughput(36.0), 2.0 * v2.throughput(36.0), 1e-9);
}

TEST(ConcurrencyModelTest, NbInvariantUnderGammaScaling) {
  // Scaling (S0, α, β) and γ by the same constant leaves N_b unchanged —
  // the identifiability property the normalized trainer relies on.
  const double c = 7.3;
  ConcurrencyModel scaled{{kMysql.s0 * c, kMysql.alpha * c, kMysql.beta * c}, c, 1, 2.0};
  ConcurrencyModel base{kMysql, 1.0, 1, 2.0};
  EXPECT_NEAR(scaled.optimal_concurrency(), base.optimal_concurrency(), 1e-9);
  EXPECT_NEAR(scaled.throughput(36.0), base.throughput(36.0), 1e-9);
}

TEST(ConcurrencyModelTest, DegenerateCurveFallsBackToOne) {
  // β = 0 (no crosstalk) ⇒ monotone curve, no finite optimum.
  ConcurrencyModel model{{0.01, 0.001, 0.0}, 1.0, 1, 1.0};
  EXPECT_DOUBLE_EQ(model.optimal_concurrency(), 1.0);
  // α ≥ S0 ⇒ same fallback.
  ConcurrencyModel model2{{0.01, 0.02, 1e-6}, 1.0, 1, 1.0};
  EXPECT_DOUBLE_EQ(model2.optimal_concurrency(), 1.0);
}

TEST(ParamsTest, ValidityChecks) {
  EXPECT_TRUE(kTomcat.valid());
  EXPECT_FALSE((ServiceTimeParams{0.0, 0.0, 0.0}).valid());
  EXPECT_FALSE((ServiceTimeParams{0.1, -0.1, 0.0}).valid());
}

}  // namespace
}  // namespace dcm::model
