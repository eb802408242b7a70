// Quickstart: deploy a 3-tier RUBBoS-like application, drive it with
// realistic closed-loop clients, and read the results.
//
//   $ ./quickstart [users]
//
// Walks through the core public API: topology → workload → run → metrics,
// plus the concurrency-aware model's view of the same deployment.
#include <cstdio>
#include <cstdlib>

#include "dcm.h"

using namespace dcm;

int main(int argc, char** argv) {
  const int users = argc > 1 ? std::atoi(argv[1]) : 300;

  // 1. Describe the deployment: #W/#A/#D hardware and the soft-resource
  //    allocation (Apache threads / Tomcat threads / per-Tomcat DB conns).
  core::ExperimentConfig config;
  config.hardware = {1, 1, 1};
  config.soft = {1000, 100, 80};  // the paper's default allocation
  config.workload = core::WorkloadSpec::rubbos(users, /*think_s=*/3.0);
  config.controller = core::ControllerSpec{};
  config.duration_seconds = 120.0;
  config.warmup_seconds = 30.0;

  std::printf("running 1/1/1 with soft allocation 1000/100/80, %d users...\n\n", users);
  const core::ExperimentResult result = core::run_experiment(config);

  std::printf("throughput      : %.1f req/s\n", result.mean_throughput);
  std::printf("response time   : mean %.1f ms, p95 %.1f ms, max %.1f ms\n",
              result.mean_response_time * 1e3, result.p95_response_time * 1e3,
              result.max_response_time * 1e3);
  std::printf("completed/errors: %llu / %llu\n\n",
              static_cast<unsigned long long>(result.completed),
              static_cast<unsigned long long>(result.errors));

  // 2. What does the concurrency-aware model (paper Eq. 1-8) say about this
  //    deployment?
  const model::ConcurrencyModel tomcat = core::tomcat_reference_model();
  const model::ConcurrencyModel mysql = core::mysql_reference_model();
  std::printf("model: Tomcat optimal concurrency N_b = %d (deployed pool: 100)\n",
              tomcat.optimal_concurrency_int());
  std::printf("model: MySQL  optimal concurrency N_b = %d (deployed conns: 80)\n",
              mysql.optimal_concurrency_int());
  std::printf("model: Tomcat-bound peak throughput = %.1f req/s\n", tomcat.max_throughput());

  // 3. Apply the model's allocation and re-run — the Fig. 4(a) experiment
  //    in two calls.
  config.soft.app_threads = tomcat.optimal_concurrency_int();
  const core::ExperimentResult tuned = core::run_experiment(config);
  std::printf("\nwith model-optimal Tomcat pool (%d threads): %.1f req/s (%+.0f%%)\n",
              config.soft.app_threads, tuned.mean_throughput,
              100.0 * (tuned.mean_throughput / result.mean_throughput - 1.0));
  return 0;
}
