// Three-tier equilibria: the Fig. 2(b) / Fig. 4 phenomena.
//
// These are the paper's central motivating observations:
//   * 1/1/1 with the model-optimal Tomcat pool (≈20) beats the default 100
//     at saturation (Fig. 4a).
//   * Scaling to 1/2/1 with default pools doubles the concurrency hitting
//     MySQL (160) and UNDERPERFORMS the original 1/1/1 at high load
//     (Fig. 2b), while re-tuning the DB connection pools to 20 each makes
//     1/2/1 strictly better (Fig. 4b).
#include <gtest/gtest.h>

#include "core/experiment.h"

namespace dcm::core {
namespace {

double saturated_throughput(HardwareConfig hw, SoftAllocation soft, int users,
                            double seconds = 120.0) {
  ExperimentConfig config;
  config.hardware = hw;
  config.soft = soft;
  config.workload = WorkloadSpec::rubbos(users);
  config.controller = ControllerSpec{};
  config.duration_seconds = seconds;
  config.warmup_seconds = 40.0;
  return run_experiment(config).mean_throughput;
}

constexpr int kSaturatingUsers = 400;

TEST(ThreeTierTest, LightLoadThroughputMatchesOfferedLoad) {
  // 60 users, 3 s think, fast responses ⇒ ~20 req/s regardless of pools.
  const double x = saturated_throughput({1, 1, 1}, {1000, 100, 80}, 60);
  EXPECT_NEAR(x, 60.0 / 3.0, 2.5);
}

TEST(ThreeTierTest, OptimalTomcatPoolBeatsDefaultAtSaturation) {
  // Fig. 4(a): 1000/20/80 outperforms 1000/100/80 by a clear margin.
  const double x_default = saturated_throughput({1, 1, 1}, {1000, 100, 80}, kSaturatingUsers);
  const double x_optimal = saturated_throughput({1, 1, 1}, {1000, 20, 80}, kSaturatingUsers);
  EXPECT_GT(x_optimal, x_default * 1.10);
}

TEST(ThreeTierTest, ScaleOutWithDefaultPoolsDegradesBelowOriginal) {
  // Fig. 2(b): 1/2/1 with two 80-connection pools floods MySQL (160 > knee)
  // and ends up *worse* than the unscaled 1/1/1 at high load.
  const double x_111 = saturated_throughput({1, 1, 1}, {1000, 100, 80}, kSaturatingUsers);
  const double x_121_default = saturated_throughput({1, 2, 1}, {1000, 100, 80}, kSaturatingUsers);
  EXPECT_LT(x_121_default, x_111);
}

TEST(ThreeTierTest, RetunedScaleOutOutperformsBoth) {
  // Fig. 4(b): 1/2/1 with per-Tomcat DBConnP = 20 (total 40 ≈ MySQL knee)
  // beats both the 1/1/1 and the default-pool 1/2/1.
  const double x_111 = saturated_throughput({1, 1, 1}, {1000, 100, 80}, kSaturatingUsers);
  const double x_121_default = saturated_throughput({1, 2, 1}, {1000, 100, 80}, kSaturatingUsers);
  const double x_121_retuned = saturated_throughput({1, 2, 1}, {1000, 100, 20}, kSaturatingUsers);
  EXPECT_GT(x_121_retuned, x_111 * 1.15);
  EXPECT_GT(x_121_retuned, x_121_default * 1.3);
}

TEST(ThreeTierTest, ResponseTimeGrowsWithClosedLoopOverload) {
  ExperimentConfig config;
  config.hardware = {1, 1, 1};
  config.soft = {1000, 100, 80};
  config.controller = ControllerSpec{};
  config.duration_seconds = 120.0;
  config.warmup_seconds = 40.0;

  config.workload = WorkloadSpec::rubbos(60);
  const auto light = run_experiment(config);
  config.workload = WorkloadSpec::rubbos(kSaturatingUsers);
  const auto heavy = run_experiment(config);
  EXPECT_GT(heavy.mean_response_time, 4.0 * light.mean_response_time);
}

TEST(ThreeTierTest, NoRequestsAreLostInNormalOperation) {
  ExperimentConfig config;
  config.hardware = {1, 1, 1};
  config.soft = {1000, 100, 80};
  config.workload = WorkloadSpec::rubbos(200);
  config.controller = ControllerSpec{};
  config.duration_seconds = 60.0;
  config.warmup_seconds = 10.0;
  const auto result = run_experiment(config);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_GT(result.completed, 0u);
}

}  // namespace
}  // namespace dcm::core
