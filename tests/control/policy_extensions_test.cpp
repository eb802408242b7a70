// The SLA-driven scale-out policy extension.
#include <gtest/gtest.h>

#include "bus/producer.h"
#include "control/ec2_autoscale.h"
#include "core/topologies.h"
#include "ntier/monitor_agent.h"

namespace dcm::control {
namespace {

class PolicyExtensionsTest : public ::testing::Test {
 protected:
  PolicyExtensionsTest()
      : app_(engine_, core::build_service_graph({}, {1, 1, 1}, {1000, 100, 80}), /*seed=*/1) {
    bus::TopicConfig config;
    config.partitions = 4;
    broker_.create_topic(ntier::kMetricsTopic, config);
    producer_ = std::make_unique<bus::Producer>(broker_);
  }

  void emit_period(double end_s, double tomcat_util, double tomcat_rt = 0.05) {
    for (double t = end_s - 14.0; t <= end_s; t += 1.0) {
      ntier::MetricSample s;
      s.time = sim::from_seconds(t);
      s.server_id = "tomcat-vm0";
      s.tier = "tomcat";
      s.depth = 1;
      s.vm_state = "ACTIVE";
      s.cpu_util = tomcat_util;
      s.throughput = 50.0;
      s.avg_response_time = tomcat_rt;
      producer_->send(ntier::kMetricsTopic, s.server_id, s.serialize(), s.time);
    }
  }

  sim::Engine engine_;
  ntier::NTierApp app_;
  bus::Broker broker_;
  std::unique_ptr<bus::Producer> producer_;
};

TEST_F(PolicyExtensionsTest, SlaViolationTriggersScaleOutAtLowUtil) {
  ScalingPolicy policy;
  policy.scale_out_response_time = 0.5;  // 500 ms SLA
  Ec2AutoScaleController controller(engine_, app_, broker_, policy);
  controller.start();
  emit_period(15.0, /*util=*/0.50, /*rt=*/1.2);  // util fine, RT violated
  engine_.run_until(sim::from_seconds(16.0));
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), 2);
}

TEST_F(PolicyExtensionsTest, SlaDisabledByDefault) {
  Ec2AutoScaleController controller(engine_, app_, broker_, {});
  controller.start();
  emit_period(15.0, 0.50, 5.0);  // terrible RT but SLA trigger off
  engine_.run_until(sim::from_seconds(16.0));
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), 1);
}

TEST_F(PolicyExtensionsTest, SlaWithinBoundDoesNotTrigger) {
  ScalingPolicy policy;
  policy.scale_out_response_time = 0.5;
  Ec2AutoScaleController controller(engine_, app_, broker_, policy);
  controller.start();
  emit_period(15.0, 0.50, 0.2);
  engine_.run_until(sim::from_seconds(16.0));
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), 1);
}

TEST_F(PolicyExtensionsTest, ReactiveWouldNotHaveScaledYet) {
  Ec2AutoScaleController controller(engine_, app_, broker_, {});
  controller.start();
  emit_period(15.0, 0.45);
  engine_.run_until(sim::from_seconds(16.0));
  emit_period(30.0, 0.70);
  engine_.run_until(sim::from_seconds(31.0));
  EXPECT_EQ(app_.tier(1).provisioned_vm_count(), 1);
}

}  // namespace
}  // namespace dcm::control
