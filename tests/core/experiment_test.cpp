// ExperimentRunner consistency: the summary numbers must agree with the raw
// series and the simulation's own bookkeeping.
#include <gtest/gtest.h>

#include "core/experiment.h"

namespace dcm::core {
namespace {

ExperimentResult small_run(ControllerSpec controller = ControllerSpec{},
                           int users = 150) {
  ExperimentConfig config;
  config.hardware = {1, 1, 1};
  config.soft = {1000, 100, 80};
  config.workload = WorkloadSpec::rubbos(users);
  config.controller = std::move(controller);
  config.duration_seconds = 90.0;
  config.warmup_seconds = 20.0;
  return run_experiment(config);
}

TEST(ExperimentRunnerTest, CompletedMatchesThroughputSeries) {
  const auto result = small_run();
  double total = 0.0;
  for (const auto& bucket : result.client.throughput_series().buckets()) {
    total += bucket.stat.sum();
  }
  EXPECT_NEAR(total, static_cast<double>(result.completed), 1e-9);
}

TEST(ExperimentRunnerTest, TimelinesCoverTheWholeRun) {
  const auto result = small_run();
  ASSERT_EQ(result.tiers.size(), 3u);
  for (const auto& tier : result.tiers) {
    // 90 one-second buckets (the last sampler tick stamps second 89).
    EXPECT_NEAR(static_cast<double>(tier.provisioned_vms.buckets().size()), 90.0, 1.0);
    EXPECT_EQ(tier.cpu_util.buckets().size(), tier.provisioned_vms.buckets().size());
  }
}

TEST(ExperimentRunnerTest, VmSecondsMatchStaticTopology) {
  const auto result = small_run();
  // No controller: 1 VM per tier for ~90 s each.
  for (size_t i = 0; i < result.tiers.size(); ++i) {
    EXPECT_NEAR(result.vm_seconds[i], 89.0, 2.0) << i;
  }
  // total counts the scalable tiers (tomcat + mysql).
  EXPECT_NEAR(result.total_vm_seconds, result.vm_seconds[1] + result.vm_seconds[2], 1e-9);
  EXPECT_NEAR(result.requests_per_vm_second,
              static_cast<double>(result.completed) / result.total_vm_seconds, 1e-9);
}

TEST(ExperimentRunnerTest, SlaFractionBoundsAndMeaning) {
  const auto light = small_run(ControllerSpec{}, 60);
  EXPECT_DOUBLE_EQ(light.sla_violation_fraction, 0.0);  // ~60 ms responses

  const auto heavy = small_run(ControllerSpec{}, 700);
  EXPECT_GT(heavy.sla_violation_fraction, 0.5);  // deeply saturated
  EXPECT_LE(heavy.sla_violation_fraction, 1.0);
}

TEST(ExperimentRunnerTest, UtilTimelineSaturatesUnderOverload) {
  const auto result = small_run(ControllerSpec{}, 500);
  metrics::Welford tomcat_util;
  for (const auto& bucket : result.tiers[1].cpu_util.buckets()) {
    if (bucket.start < sim::from_seconds(30.0)) continue;
    tomcat_util.merge(bucket.stat);
  }
  EXPECT_GT(tomcat_util.mean(), 0.95);
}

TEST(ExperimentRunnerTest, SweepMeasuresMatchingConcurrency) {
  ExperimentConfig base;
  base.hardware = {1, 1, 1};
  base.soft = {1000, 100, 400};
  base.duration_seconds = 60.0;
  base.warmup_seconds = 20.0;
  const auto points = jmeter_concurrency_sweep(base, {4, 16}, /*match_app_pools=*/true);
  ASSERT_EQ(points.size(), 2u);
  for (const auto& point : points) {
    ASSERT_EQ(point.per_server_concurrency.size(), 3u);
    // With matched pools and zero think, tomcat concurrency tracks offered.
    EXPECT_NEAR(point.per_server_concurrency[1], point.concurrency,
                0.25 * point.concurrency + 0.5);
    EXPECT_GT(point.throughput, 0.0);
  }
  EXPECT_GT(points[1].throughput, points[0].throughput);
}

TEST(ExperimentRunnerTest, ActionCountFiltersByTier) {
  const auto result = small_run(ControllerSpec{.name = "ec2"}, 500);
  const int total = result.action_count("scale_out");
  const int tomcat = result.action_count("scale_out", "tomcat");
  const int mysql = result.action_count("scale_out", "mysql");
  EXPECT_EQ(total, tomcat + mysql);
  EXPECT_GE(tomcat, 1);
}

}  // namespace
}  // namespace dcm::core
