#include "scenario/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "scenario/result_writer.h"

namespace dcm::scenario {
namespace {

Scenario small_base() {
  return Scenario::parse(
      "[workload]\nkind=rubbos\nusers=40\n"
      "[run]\nduration=20\nwarmup=5\nseed=11\n");
}

TEST(ParseAxisTest, ParsesSectionKeyAndValues) {
  const SweepAxis axis = parse_axis("workload.users = 40, 60 ,80");
  EXPECT_EQ(axis.section, "workload");
  EXPECT_EQ(axis.key, "users");
  EXPECT_EQ(axis.values, (std::vector<std::string>{"40", "60", "80"}));
}

TEST(ParseAxisTest, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_axis("no-equals"), std::runtime_error);
  EXPECT_THROW(parse_axis("nodot=1,2"), std::runtime_error);
  EXPECT_THROW(parse_axis(".key=1"), std::runtime_error);
  EXPECT_THROW(parse_axis("run.=1"), std::runtime_error);
  EXPECT_THROW(parse_axis("workload.users=40,,80"), std::runtime_error);
}

TEST(ExpandGridTest, NoAxesYieldsTheBaseAsRunZero) {
  SweepPlan plan;
  plan.base = small_base();
  const auto runs = expand_grid(plan);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].index, 0u);
  EXPECT_TRUE(runs[0].overrides.empty());
  // kDerivePerRun still applies: run 0's seed is derive_seed(root, 0).
  EXPECT_EQ(runs[0].scenario.seed, derive_seed(11, 0));
}

TEST(ExpandGridTest, SinglePointAxis) {
  SweepPlan plan;
  plan.base = small_base();
  plan.axes.push_back(parse_axis("workload.users=60"));
  const auto runs = expand_grid(plan);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].scenario.workload.users, 60);
}

// dcm-result-v1 reports each run's seed as an unsigned decimal; any reported
// seed, including those >= 2^63, replays its run through run.seed.
TEST(ExpandGridTest, ReportedSeedsAtOrAboveTwoToThe63Replay) {
  SweepPlan plan;
  plan.base = small_base();
  plan.axes.push_back(parse_axis("workload.users=40,50,60,70"));
  const auto runs = expand_grid(plan);
  const auto high = std::find_if(runs.begin(), runs.end(), [](const PlannedRun& run) {
    return run.scenario.seed >= (uint64_t{1} << 63);
  });
  ASSERT_NE(high, runs.end());

  Overrides replay_overrides = high->overrides;
  replay_overrides.emplace_back("run.seed", std::to_string(high->scenario.seed));
  const Scenario replay = apply_overrides(plan.base, replay_overrides);
  EXPECT_EQ(replay.seed, high->scenario.seed);
  EXPECT_TRUE(Scenario::parse(replay.to_text()) == replay);
  EXPECT_EQ(result_digest(core::run_experiment(replay.experiment())),
            result_digest(core::run_experiment(high->scenario.experiment())));
}

TEST(ExpandGridTest, EmptyValueAxisThrows) {
  SweepPlan plan;
  plan.base = small_base();
  plan.axes.push_back({"workload", "users", {}});
  EXPECT_THROW(expand_grid(plan), std::runtime_error);
}

TEST(ExpandGridTest, CartesianOrderingLastAxisFastest) {
  SweepPlan plan;
  plan.base = small_base();
  plan.axes.push_back(parse_axis("workload.users=40,60"));
  plan.axes.push_back(parse_axis("run.max_vms=2,4,8"));
  const auto runs = expand_grid(plan);
  ASSERT_EQ(runs.size(), 6u);
  // (40,2) (40,4) (40,8) (60,2) (60,4) (60,8) — like nested loops.
  const std::vector<std::pair<int, int>> expected = {{40, 2}, {40, 4}, {40, 8},
                                                     {60, 2}, {60, 4}, {60, 8}};
  for (size_t i = 0; i < runs.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(runs[i].index, i);
    EXPECT_EQ(runs[i].scenario.workload.users, expected[i].first);
    EXPECT_EQ(runs[i].scenario.max_vms, expected[i].second);
    // Overrides are recorded in axis order.
    ASSERT_EQ(runs[i].overrides.size(), 2u);
    EXPECT_EQ(runs[i].overrides[0].first, "workload.users");
    EXPECT_EQ(runs[i].overrides[1].first, "run.max_vms");
  }
}

TEST(ExpandGridTest, SeedPolicies) {
  SweepPlan plan;
  plan.base = small_base();
  plan.axes.push_back(parse_axis("workload.users=40,60,80"));

  const auto derived = expand_grid(plan);
  for (size_t i = 0; i < derived.size(); ++i) {
    EXPECT_EQ(derived[i].scenario.seed, derive_seed(11, i));
  }

  plan.seed_policy = SeedPolicy::kFixed;
  for (const auto& run : expand_grid(plan)) {
    EXPECT_EQ(run.scenario.seed, 11u);
  }
}

TEST(ExpandGridTest, ExplicitSeedAxisWinsOverDerivation) {
  SweepPlan plan;
  plan.base = small_base();
  plan.axes.push_back(parse_axis("run.seed=100,200"));
  const auto runs = expand_grid(plan);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].scenario.seed, 100u);
  EXPECT_EQ(runs[1].scenario.seed, 200u);
}

TEST(ExpandGridTest, KindOverrideRescopesKeys) {
  SweepPlan plan;
  // A dcm base emits dcm-only keys (headroom, online_estimation, models);
  // sweeping the controller kind must drop them for the non-dcm points
  // instead of tripping the strict check.
  plan.base = Scenario::parse(
      "[workload]\nkind=rubbos\nusers=40\n"
      "[controller]\nkind=dcm\nheadroom=1.5\n"
      "[run]\nduration=20\nwarmup=5\n");
  plan.axes.push_back(parse_axis("controller.kind=dcm,ec2,none"));
  const auto runs = expand_grid(plan);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].scenario.controller.name, "dcm");
  EXPECT_DOUBLE_EQ(runs[0].scenario.controller.dcm.stp_headroom, 1.5);
  EXPECT_EQ(runs[1].scenario.controller.name, "ec2");
  EXPECT_EQ(runs[2].scenario.controller.name, "none");
}

TEST(ExpandGridTest, TypoOverrideStillThrows) {
  SweepPlan plan;
  plan.base = small_base();
  plan.axes.push_back(parse_axis("workload.usres=40,60"));
  EXPECT_THROW(expand_grid(plan), std::runtime_error);
}

// apply_overrides is the one override path behind sweep points, `dcm_run
// --set` and tournament overrides.
TEST(ApplyOverridesTest, KindChangeDropsKeysOfTheOldKind) {
  const Scenario base = Scenario::parse(
      "[controller]\nkind=dcm\nheadroom=1.5\nonline_estimation=true\n"
      "[resilience]\nenabled=true\nwatchdog_periods=3\n");
  const Scenario pi = apply_overrides(base, {{"controller.kind", "pi"}, {"controller.kp", "3"}});
  EXPECT_EQ(pi.controller.name, "pi");
  EXPECT_DOUBLE_EQ(pi.controller.pi.kp, 3.0);
  // The pi family's other knobs keep their control-layer defaults.
  EXPECT_DOUBLE_EQ(pi.controller.pi.ki, control::PiConfig{}.ki);
  // dcm-only keys (headroom, the watchdog) were dropped, not rejected.
  EXPECT_EQ(pi.to_text().find("headroom"), std::string::npos);
  EXPECT_EQ(pi.to_text().find("watchdog_periods"), std::string::npos);
  EXPECT_TRUE(pi.resilience.enabled);
}

TEST(ApplyOverridesTest, DisablingAGateDropsItsDetailKeys) {
  const Scenario base = Scenario::parse(
      "[resilience]\nenabled=true\nclient_backoff=0.5\n"
      "[trace]\nenabled=true\nrate=0.25\n");
  const Scenario off = apply_overrides(base, {{"resilience.enabled", "false"},
                                              {"trace.enabled", "false"}});
  EXPECT_FALSE(off.resilience.enabled);
  EXPECT_FALSE(off.trace.enabled);
  EXPECT_TRUE(off == Scenario::parse(off.to_text()));
  EXPECT_EQ(off.to_text().find("client_backoff"), std::string::npos);
  EXPECT_EQ(off.to_text().find("[trace]"), std::string::npos);
}

TEST(ApplyOverridesTest, LaterOverrideOfTheSameKeyWins) {
  const Scenario base = small_base();
  const Scenario out =
      apply_overrides(base, {{"workload.users", "60"}, {"workload.users", "70"}});
  EXPECT_EQ(out.workload.users, 70);
  EXPECT_TRUE(apply_overrides(base, {}) == base);
}

TEST(ApplyOverridesTest, TypoOrInapplicableOverrideStillThrows) {
  const Scenario base = small_base();
  EXPECT_THROW(apply_overrides(base, {{"workload.usres", "40"}}), std::runtime_error);
  // A real key that does not apply to the declared kind is still an error.
  EXPECT_THROW(apply_overrides(base, {{"controller.headroom", "2"}}), std::runtime_error);
  EXPECT_THROW(apply_overrides(base, {{"controller.kind", "pi"}, {"controller.alpha", "0.5"}}),
               std::runtime_error);
  EXPECT_THROW(apply_overrides(base, {{"nodot", "1"}}), std::runtime_error);
}

}  // namespace
}  // namespace dcm::scenario
