// End-to-end invariants of the tracing layer:
//
//  1. observer effect — enabling tracing, at ANY rate, must leave the core
//     result digest bit-identical to the untraced run (tracing never
//     schedules events, draws randomness, or mutates simulation state);
//  2. replay — the trace itself is deterministic: same seed + same rate
//     twice gives an identical trace digest (span streams, annotations,
//     attribution table);
//  3. one record per event — the report's annotations are the run log: every
//     control action and fault entry the result holds, nothing more, in
//     record order.
#include <gtest/gtest.h>

#include <cstdint>

#include <vector>

#include "core/experiment.h"
#include "scenario/registry.h"
#include "scenario/result_writer.h"

namespace dcm::core {
namespace {

ExperimentConfig base_config(uint64_t seed) {
  ExperimentConfig config;
  // Small app-tier pool: with 60 users against 8 worker threads the app
  // tier queues, so pool-wait spans have nonzero width and show up in the
  // attribution table (zero-width waits are elided from the fold).
  config.soft = {1000, 8, 80};
  config.workload = WorkloadSpec::rubbos(60, /*think_s=*/1.0);
  config.controller = ControllerSpec{.name = "ec2"};
  config.duration_seconds = 20.0;
  config.warmup_seconds = 5.0;
  config.seed = seed;
  return config;
}

ExperimentResult run_traced(uint64_t seed, bool enabled, double rate) {
  ExperimentConfig config = base_config(seed);
  config.trace.enabled = enabled;
  config.trace.rate = rate;
  return run_experiment(config);
}

TEST(TraceDeterminismTest, TracingAtAnyRateLeavesResultDigestBitIdentical) {
  const ExperimentResult untraced = run_traced(7, false, 1.0);
  const uint64_t baseline = scenario::result_digest(untraced);
  EXPECT_EQ(untraced.trace_report, nullptr);

  for (const double rate : {0.0, 0.25, 1.0}) {
    const ExperimentResult traced = run_traced(7, true, rate);
    EXPECT_EQ(scenario::result_digest(traced), baseline)
        << "tracing at rate " << rate
        << " perturbed the simulation — a hook scheduled an event, drew "
           "randomness, or mutated shared state";
    ASSERT_NE(traced.trace_report, nullptr);
    EXPECT_DOUBLE_EQ(traced.trace_report->spec.rate, rate);
  }
}

TEST(TraceDeterminismTest, SameSeedAndRateReplayTraceExactly) {
  const ExperimentResult first = run_traced(7, true, 0.5);
  const ExperimentResult second = run_traced(7, true, 0.5);
  ASSERT_NE(first.trace_report, nullptr);
  ASSERT_NE(second.trace_report, nullptr);
  EXPECT_GT(first.trace_report->sampled, 0u);
  EXPECT_EQ(scenario::trace_digest(*first.trace_report),
            scenario::trace_digest(*second.trace_report));
}

TEST(TraceDeterminismTest, DifferentSeedsSampleDifferently) {
  const ExperimentResult a = run_traced(7, true, 0.5);
  const ExperimentResult b = run_traced(8, true, 0.5);
  ASSERT_NE(a.trace_report, nullptr);
  ASSERT_NE(b.trace_report, nullptr);
  EXPECT_NE(scenario::trace_digest(*a.trace_report),
            scenario::trace_digest(*b.trace_report));
}

TEST(TraceDeterminismTest, FullRateTracesEveryCompletedRequest) {
  const ExperimentResult result = run_traced(7, true, 1.0);
  ASSERT_NE(result.trace_report, nullptr);
  const auto& report = *result.trace_report;
  EXPECT_GT(report.sampled, 0u);
  EXPECT_GT(report.completed, 0u);
  // Every client completion (warmup included) settled its trace.
  EXPECT_GE(report.sampled, report.finalized);
  EXPECT_GE(report.finalized, report.completed);
  EXPECT_GE(report.completed, result.completed);

  // The attribution table carries the full waterfall vocabulary: every
  // trace crosses the front tier, so pool-wait and service rows exist.
  bool saw_service = false;
  bool saw_pool_wait = false;
  for (const auto& row : report.attribution) {
    if (row.cause == trace::SpanKind::kService) saw_service = true;
    if (row.cause == trace::SpanKind::kPoolWait) saw_pool_wait = true;
    EXPECT_GT(row.traces, 0u);
    EXPECT_GE(row.total_seconds, 0.0);
    EXPECT_GE(row.p99_share, row.p50_share - 1e-12);
  }
  EXPECT_TRUE(saw_service);
  EXPECT_TRUE(saw_pool_wait);
}

TEST(TraceDeterminismTest, RateScalesTheSampleNotTheSimulation) {
  const ExperimentResult full = run_traced(7, true, 1.0);
  const ExperimentResult quarter = run_traced(7, true, 0.25);
  ASSERT_NE(full.trace_report, nullptr);
  ASSERT_NE(quarter.trace_report, nullptr);
  EXPECT_LT(quarter.trace_report->sampled, full.trace_report->sampled);
  EXPECT_GT(quarter.trace_report->sampled, 0u);
  // Both simulations were byte-identical, so completions match exactly.
  EXPECT_EQ(full.completed, quarter.completed);
}

TEST(TraceDeterminismTest, ControllerActionsSurfaceAsAnnotations) {
  // The ec2 controller scales under this load; its actuations must land in
  // the trace report as run-level annotations.
  const ExperimentResult result = run_traced(7, true, 1.0);
  ASSERT_NE(result.trace_report, nullptr);
  EXPECT_EQ(result.trace_report->annotations.size(), result.actions.size());
}

TEST(TraceDeterminismTest, ChaosAnnotationsAreTheRunLogElementByElement) {
  // DCM deploys its model-optimal pools at construction (t=0) and the chaos
  // schedule adds faults and recoveries: every one of them must reach the
  // report, in the order it was recorded.
  ExperimentConfig config = scenario::get_scenario("chaos-resilience").experiment();
  ASSERT_EQ(config.seed, 1u);
  config.trace.enabled = true;
  config.trace.rate = 0.05;
  const ExperimentResult result = run_experiment(config);
  EXPECT_EQ(scenario::result_digest(result), 11487354307476855148ull);
  ASSERT_NE(result.trace_report, nullptr);
  // Pins the sampled traces themselves too, including the client's backoff
  // and timeout-wait spans and attempt counts.
  EXPECT_EQ(scenario::trace_digest(*result.trace_report), 14153137939280334098ull);

  const std::vector<sim::RunEvent>& annotations = result.trace_report->annotations;
  EXPECT_EQ(result.actions.size(), 23u);
  EXPECT_EQ(result.fault_log.size(), 22u);
  ASSERT_EQ(annotations.size(), 45u);
  ASSERT_EQ(annotations.size(), result.actions.size() + result.fault_log.size());
  size_t next_action = 0;
  size_t next_fault = 0;
  for (size_t i = 0; i < annotations.size(); ++i) {
    const sim::RunEvent& event = annotations[i];
    if (i > 0) {
      EXPECT_GE(event.at, annotations[i - 1].at) << i;
    }
    if (event.source == sim::EventSource::kControl) {
      ASSERT_LT(next_action, result.actions.size());
      EXPECT_EQ(event, result.actions[next_action++]) << i;
    } else {
      ASSERT_LT(next_fault, result.fault_log.size());
      EXPECT_EQ(event, result.fault_log[next_fault++]) << i;
    }
  }
  EXPECT_EQ(annotations[0].at, 0);
  EXPECT_EQ(annotations[0].kind, "set_stp");
  EXPECT_EQ(annotations[1].at, 0);
  EXPECT_EQ(annotations[1].kind, "set_conns");
}

}  // namespace
}  // namespace dcm::core
