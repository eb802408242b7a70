// Capacity planning with operational laws + the concurrency-aware model.
//
//   $ ./capacity_planning [target_req_per_s]
//
// Given a target workload, uses the paper's Eq. 1-8 to answer:
//   * which tier bottlenecks first and at what throughput,
//   * how many servers each tier needs for the target,
//   * what soft-resource allocation those servers should run,
// then validates the plan by simulating it at the target load.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "dcm.h"

using namespace dcm;

int main(int argc, char** argv) {
  const double target = argc > 1 ? std::atof(argv[1]) : 150.0;  // req/s

  const model::ConcurrencyModel tomcat = core::tomcat_reference_model();
  const model::ConcurrencyModel mysql = core::mysql_reference_model();

  // Per-server peak capacity at the model-optimal concurrency.
  const double tomcat_peak = tomcat.max_throughput();
  const double mysql_peak = mysql.max_throughput();

  // Operational-law bottleneck analysis for the 1/1/1 deployment using the
  // *effective* service demand at optimum (1/peak).
  const std::vector<model::TierDemand> tiers = {
      {"apache", 1.0, 1.0e-3, 1, 1.0},
      {"tomcat", 1.0, 1.0 / tomcat_peak, 1, 1.0},
      {"mysql", 1.0, 1.0 / mysql_peak, 1, 1.0},
  };
  const auto report = model::analyze_bottleneck(tiers);
  std::printf("=== capacity plan for %.0f req/s ===\n\n", target);
  std::printf("per-server peak: tomcat %.1f req/s (N_b=%d), mysql %.1f req/s (N_b=%d)\n",
              tomcat_peak, tomcat.optimal_concurrency_int(), mysql_peak,
              mysql.optimal_concurrency_int());
  std::printf("1/1/1 bottleneck tier: %s at %.1f req/s\n\n",
              tiers[static_cast<size_t>(report.bottleneck_tier)].name.c_str(),
              report.max_throughput);

  // Servers needed per tier (ceil of target / per-server peak).
  const int k_tomcat = static_cast<int>(std::ceil(target / tomcat_peak));
  const int k_mysql = static_cast<int>(std::ceil(target / mysql_peak));
  const int conns = static_cast<int>(
      std::ceil(static_cast<double>(k_mysql * mysql.optimal_concurrency_int()) / k_tomcat));
  std::printf("plan: 1/%d/%d, Tomcat pool %d, per-Tomcat DB conns %d (total %d ≈ %d·N_b)\n\n",
              k_tomcat, k_mysql, tomcat.optimal_concurrency_int(), conns, k_tomcat * conns,
              k_mysql);

  // Validate: simulate the plan at the target offered load (users chosen by
  // the closed-loop identity U ≈ X·(Z + R), R small).
  const int users = static_cast<int>(target * 3.3);
  core::ExperimentConfig config;
  config.hardware = {1, k_tomcat, k_mysql};
  config.soft = {1000, tomcat.optimal_concurrency_int(), conns};
  config.workload = core::WorkloadSpec::rubbos(users);
  config.controller = core::ControllerSpec{};
  config.duration_seconds = 150.0;
  config.warmup_seconds = 50.0;
  config.max_vms_per_tier = std::max({8, k_tomcat, k_mysql});
  const auto result = core::run_experiment(config);

  std::printf("validation at %d users: %.1f req/s (target %.0f), rt mean %.0f ms p95 %.0f ms\n",
              users, result.mean_throughput, target, result.mean_response_time * 1e3,
              result.p95_response_time * 1e3);
  std::printf("%s\n", result.mean_throughput >= 0.95 * target
                          ? "plan meets the target."
                          : "plan falls short — raise the per-tier counts.");
  return 0;
}
