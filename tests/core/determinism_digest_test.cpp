// End-to-end determinism regression: the full experiment facade (engine +
// n-tier app + monitoring bus + workload + controller) must be a pure
// function of its seed. Two runs with the same seed must produce
// bit-identical traces — one stray wall-clock read, ambient random draw, or
// unordered-container iteration anywhere in the stack changes the digest.
//
// The digest is scenario::result_digest — FNV-1a over the raw bit patterns
// of the completed-request trace: per-second response-time and throughput
// buckets (timestamps, counts, means, extrema), every per-tier timeline, and
// the controller's action log. It is intentionally exact (no tolerances):
// determinism is a bit-for-bit property. The same digest backs the sweep
// runner's thread-count-invariance guarantee (see tests/scenario).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "core/experiment.h"
#include "scenario/result_writer.h"
#include "scenario/sweep.h"

namespace dcm::core {
namespace {

uint64_t run_digest(uint64_t seed) {
  ExperimentConfig config;
  config.hardware = {1, 1, 1};
  config.soft = {1000, 100, 80};
  config.workload = WorkloadSpec::rubbos(250, /*think_s=*/1.0);
  config.controller = ControllerSpec{.name = "ec2"};
  config.duration_seconds = 45.0;
  config.warmup_seconds = 10.0;
  config.seed = seed;
  return scenario::result_digest(run_experiment(config));
}

TEST(DeterminismDigestTest, SameSeedSameDigest) {
  const uint64_t first = run_digest(7);
  const uint64_t second = run_digest(7);
  EXPECT_EQ(first, second)
      << "same-seed replay diverged — something reads wall clocks, ambient "
         "randomness, or unordered iteration order";
  // Logged so digest stability can be compared across build types (the
  // value must match between Debug and Release binaries).
  RecordProperty("digest", std::to_string(first));
  std::printf("[ digest   ] %llu\n", static_cast<unsigned long long>(first));
}

TEST(DeterminismDigestTest, DifferentSeedDifferentDigest) {
  EXPECT_NE(run_digest(7), run_digest(8));
}

// The sweep extension of the same property: a whole grid of experiments,
// hashed run-by-run in index order, replays bit-identically.
TEST(DeterminismDigestTest, SweepReplayIsBitIdentical) {
  scenario::SweepPlan plan;
  plan.base = scenario::Scenario::parse(
      "[workload]\nkind=rubbos\nusers=60\n"
      "[controller]\nkind=ec2\n"
      "[run]\nduration=20\nwarmup=5\nseed=7\n");
  plan.axes.push_back(scenario::parse_axis("workload.users=60,90"));
  const uint64_t first =
      scenario::sweep_digest(scenario::SweepRunner(plan, /*jobs=*/1).run());
  const uint64_t second =
      scenario::sweep_digest(scenario::SweepRunner(plan, /*jobs=*/2).run());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace dcm::core
