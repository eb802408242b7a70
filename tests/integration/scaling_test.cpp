// VM-level scaling mechanics end-to-end: threshold triggers, the 15 s
// preparation period, "quick start slow turn off" hysteresis, and DCM's
// soft-resource re-allocation riding on top.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/experiment.h"

namespace dcm::core {
namespace {

ExperimentConfig base_config() {
  ExperimentConfig config;
  config.hardware = {1, 1, 1};
  config.soft = {1000, 100, 80};
  config.duration_seconds = 240.0;
  config.warmup_seconds = 30.0;
  return config;
}

TEST(ScalingTest, Ec2ScalesOutUnderSustainedOverload) {
  ExperimentConfig config = base_config();
  config.workload = WorkloadSpec::rubbos(400);
  config.controller = ControllerSpec{.name = "ec2"};
  const auto result = run_experiment(config);
  EXPECT_GE(result.action_count("scale_out"), 1);
  // The Tomcat tier is the 1/1/1 bottleneck, so it must be the first to grow.
  EXPECT_GE(result.action_count("scale_out", "tomcat"), 1);
}

TEST(ScalingTest, NoScalingActionsUnderLightLoad) {
  ExperimentConfig config = base_config();
  config.workload = WorkloadSpec::rubbos(40);
  config.controller = ControllerSpec{.name = "ec2"};
  const auto result = run_experiment(config);
  EXPECT_EQ(result.action_count("scale_out"), 0);
  // Already at min_vms=1 per tier: no scale-in either.
  EXPECT_EQ(result.action_count("scale_in"), 0);
}

TEST(ScalingTest, ScaleInAfterLoadDrops) {
  // High load then low load: the tier that grew must shrink again, but only
  // after the 3-consecutive-low-periods hysteresis.
  workload::Trace trace(std::vector<int>(
      [] {
        std::vector<int> users(400, 30);
        for (int t = 0; t < 150; ++t) users[static_cast<size_t>(t)] = 400;
        return users;
      }()));
  ExperimentConfig config = base_config();
  config.duration_seconds = 400.0;
  config.workload = WorkloadSpec::trace_driven(trace);
  config.controller = ControllerSpec{.name = "ec2"};
  const auto result = run_experiment(config);
  EXPECT_GE(result.action_count("scale_out"), 1);
  EXPECT_GE(result.action_count("scale_in"), 1);

  // Scale-ins must lag the load drop by at least 3 control periods (45 s).
  for (const auto& action : result.actions) {
    if (action.kind == "scale_in") {
      EXPECT_GE(sim::to_seconds(action.at), 150.0 + 45.0);
    }
  }
}

TEST(ScalingTest, VmCountTimelineReflectsBootDelay) {
  ExperimentConfig config = base_config();
  config.workload = WorkloadSpec::rubbos(400);
  config.controller = ControllerSpec{.name = "ec2"};
  const auto result = run_experiment(config);

  // Find the first scale-out and check the provisioned count stepped up.
  ASSERT_GE(result.action_count("scale_out", "tomcat"), 1);
  double t_scale = -1.0;
  for (const auto& action : result.actions) {
    if (action.kind == "scale_out" && action.subject == "tomcat") {
      t_scale = sim::to_seconds(action.at);
      break;
    }
  }
  ASSERT_GE(t_scale, 0.0);
  const auto& vms = result.tiers[1].provisioned_vms.mean_series();
  const auto at = [&](double t) {
    const auto idx = static_cast<size_t>(t);
    return idx < vms.size() ? vms[idx].second : -1.0;
  };
  EXPECT_NEAR(at(t_scale - 2.0), 1.0, 1e-9);
  EXPECT_NEAR(at(t_scale + 2.0), 2.0, 1e-9);
}

TEST(ScalingTest, DcmReallocatesPoolsOnScaleOut) {
  control::DcmConfig dcm;
  dcm.app_tier_model = tomcat_reference_model();
  dcm.db_tier_model = mysql_reference_model();
  ExperimentConfig config = base_config();
  config.workload = WorkloadSpec::rubbos(500);
  config.controller = ControllerSpec{.name = "dcm", .dcm = dcm};
  const auto result = run_experiment(config);

  // DCM immediately shrinks the Tomcat pool to ~N_b(=20) and must adjust the
  // connection pools when tiers change size.
  EXPECT_GE(result.action_count("set_stp", "tomcat"), 1);
  EXPECT_GE(result.action_count("set_conns", "tomcat"), 1);
  EXPECT_GE(result.action_count("scale_out"), 1);
}

TEST(ScalingTest, DcmKeepsTotalDbConcurrencyNearModelOptimum) {
  control::DcmConfig dcm;
  dcm.app_tier_model = tomcat_reference_model();
  dcm.db_tier_model = mysql_reference_model();
  const int nb_db = dcm.db_tier_model.optimal_concurrency_int();

  ExperimentConfig config = base_config();
  config.workload = WorkloadSpec::rubbos(500);
  config.controller = ControllerSpec{.name = "dcm", .dcm = dcm};
  const auto result = run_experiment(config);

  // Every connection-pool action must keep K_app · conns within one
  // rounding unit of K_db · N_b. We can't see K at action time directly,
  // but the per-server value must always be a ⌈K_db·N_b/K_app⌉ for some
  // valid pair (1..8): verify each setting divides cleanly.
  for (const auto& action : result.actions) {
    if (action.kind != "set_conns") continue;
    const int conns = std::stoi(action.detail.substr(action.detail.find('=') + 1));
    bool consistent = false;
    for (int k_app = 1; k_app <= 8 && !consistent; ++k_app) {
      for (int k_db = 1; k_db <= 8 && !consistent; ++k_db) {
        const int expected =
            static_cast<int>(std::ceil(static_cast<double>(k_db * nb_db) / k_app));
        if (conns == expected) consistent = true;
      }
    }
    EXPECT_TRUE(consistent) << "unexplained connection allocation " << conns;
  }
}

}  // namespace
}  // namespace dcm::core
