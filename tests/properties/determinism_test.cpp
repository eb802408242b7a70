// Determinism: the whole stack — engine, PS servers, pools, bus,
// controllers, workload generators — must replay bit-identically for the
// same seed, and diverge for different seeds.
#include <gtest/gtest.h>

#include "core/experiment.h"

namespace dcm::core {
namespace {

struct RunDigest {
  uint64_t completed;
  uint64_t errors;
  double mean_throughput;
  double mean_rt;
  double p95_rt;
  size_t action_count;
  std::vector<double> tomcat_vms;

  bool operator==(const RunDigest& other) const {
    return completed == other.completed && errors == other.errors &&
           mean_throughput == other.mean_throughput && mean_rt == other.mean_rt &&
           p95_rt == other.p95_rt && action_count == other.action_count &&
           tomcat_vms == other.tomcat_vms;
  }
};

// The controller families under test (a plain enum keeps the parameter's
// printed form stable).
enum class Controlled { kNone, kEc2, kDcm };

RunDigest run_digest(uint64_t seed, Controlled controller_kind) {
  ExperimentConfig config;
  config.hardware = {1, 1, 1};
  config.soft = {1000, 200, 80};
  config.workload = WorkloadSpec::trace_driven(workload::Trace::large_variation(seed), 3.0);
  switch (controller_kind) {
    case Controlled::kNone:
      config.controller = ControllerSpec{};
      break;
    case Controlled::kEc2:
      config.controller = ControllerSpec{.name = "ec2"};
      break;
    case Controlled::kDcm: {
      control::DcmConfig dcm;
      dcm.app_tier_model = tomcat_reference_model();
      dcm.db_tier_model = mysql_reference_model();
      config.controller = ControllerSpec{.name = "dcm", .dcm = dcm};
      break;
    }
  }
  config.duration_seconds = 200.0;
  config.warmup_seconds = 20.0;
  config.seed = seed;

  const auto result = run_experiment(config);
  RunDigest digest;
  digest.completed = result.completed;
  digest.errors = result.errors;
  digest.mean_throughput = result.mean_throughput;
  digest.mean_rt = result.mean_response_time;
  digest.p95_rt = result.p95_response_time;
  digest.action_count = result.actions.size();
  for (const auto& [t, v] : result.tiers[1].provisioned_vms.mean_series()) {
    digest.tomcat_vms.push_back(v);
  }
  return digest;
}

class DeterminismTest : public ::testing::TestWithParam<Controlled> {};

TEST_P(DeterminismTest, SameSeedReplaysBitIdentically) {
  const RunDigest first = run_digest(42, GetParam());
  const RunDigest second = run_digest(42, GetParam());
  EXPECT_TRUE(first == second);
}

TEST_P(DeterminismTest, DifferentSeedsDiverge) {
  const RunDigest a = run_digest(42, GetParam());
  const RunDigest b = run_digest(43, GetParam());
  EXPECT_FALSE(a == b);
}

INSTANTIATE_TEST_SUITE_P(Controllers, DeterminismTest,
                         ::testing::Values(Controlled::kNone,
                                           Controlled::kEc2,
                                           Controlled::kDcm),
                         [](const ::testing::TestParamInfo<Controlled>& param_info) {
                           switch (param_info.param) {
                             case Controlled::kNone:
                               return std::string("uncontrolled");
                             case Controlled::kEc2:
                               return std::string("ec2");
                             case Controlled::kDcm:
                               return std::string("dcm");
                           }
                           return std::string("unknown");
                         });

}  // namespace
}  // namespace dcm::core
