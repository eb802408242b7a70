#include "scenario/scenario.h"

#include <gtest/gtest.h>

#include "common/strings.h"
#include "scenario/registry.h"
#include "scenario/result_writer.h"

namespace dcm::scenario {
namespace {

// Pins the canonical INI emission of every registered scenario under every
// controller kind, with the resilience and trace gates each on and off, so
// a change to how the vocabulary is parsed or emitted cannot move a single
// byte of canonical text unnoticed.
TEST(ScenarioTest, CanonicalTextIsPinnedAcrossKindsAndGates) {
  Fnv1a h;
  for (const std::string& name : scenario_names()) {
    for (const char* kind : {"none", "ec2", "dcm", "pi", "predictive", "queueing"}) {
      for (const char* resilience : {"true", "false"}) {
        for (const char* trace : {"true", "false"}) {
          const Scenario scenario = apply_overrides(get_scenario(name),
                                                    {{"controller.kind", kind},
                                                     {"resilience.enabled", resilience},
                                                     {"trace.enabled", trace}});
          const std::string text = scenario.to_text();
          h.mix(static_cast<uint64_t>(text.size()));
          h.mix(std::string_view(text));
        }
      }
    }
  }
  EXPECT_EQ(h.value(), 14576085693146235100ull);
}

TEST(ScenarioTest, DefaultsMatchConfigLoaderDefaults) {
  const Scenario scenario = Scenario::parse("");
  const auto experiment = scenario.experiment();
  EXPECT_EQ(experiment.hardware.app, 1);
  EXPECT_EQ(experiment.soft.db_connections, 80);
  EXPECT_EQ(experiment.workload.kind, core::WorkloadSpec::Kind::kRubbosClients);
  EXPECT_FALSE(experiment.controller.enabled());
  EXPECT_DOUBLE_EQ(experiment.duration_seconds, 300.0);
  EXPECT_EQ(experiment.seed, 1u);
}

TEST(ScenarioTest, ParseEmitParseIsIdentity) {
  const std::string text =
      "[scenario]\nname = t\nsummary = roundtrip probe\n"
      "[hardware]\nweb=1\napp=2\ndb=2\n"
      "[soft]\napp_threads=20\ndb_connections=18\n"
      "[workload]\nkind=trace\ntrace=big-spike\npeak_users=200\nthink_seconds=1.5\n"
      "[controller]\nkind=dcm\nheadroom=1.25\nsla_rt=0.8\n"
      "[run]\nduration=120\nwarmup=10\nmax_vms=6\nseed=42\n";
  const Scenario first = Scenario::parse(text);
  const Scenario second = Scenario::parse(first.to_text());
  EXPECT_TRUE(first == second);
  // Canonical emission is a fixed point.
  EXPECT_EQ(first.to_text(), second.to_text());
  // And the fields survived.
  EXPECT_EQ(second.name, "t");
  EXPECT_EQ(second.hardware.app, 2);
  EXPECT_EQ(second.workload.kind, WorkloadDecl::Kind::kTrace);
  EXPECT_EQ(second.workload.trace, "big-spike");
  EXPECT_DOUBLE_EQ(second.workload.think_seconds, 1.5);
  EXPECT_DOUBLE_EQ(second.controller.dcm.stp_headroom, 1.25);
  EXPECT_DOUBLE_EQ(second.controller.policy.scale_out_response_time, 0.8);
  EXPECT_EQ(second.seed, 42u);
}

TEST(ScenarioTest, UnknownSectionAndKeyAreRejected) {
  EXPECT_THROW(Scenario::parse("[contorller]\nkind=dcm\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[controller]\nkidn=dcm\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[workload]\nseed=9\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("toplevel=1\n"), std::runtime_error);
}

TEST(ScenarioTest, PredictiveFlagIsAnUnknownKey) {
  // The threshold rule's predictive flag is gone: its scale-outs are the
  // predictive family's at alpha = beta = horizon = 1.
  for (const char* kind : {"ec2", "dcm"}) {
    try {
      Scenario::parse(std::string("[controller]\nkind=") + kind + "\npredictive=true\n");
      ADD_FAILURE() << kind << ": accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unknown key [controller] predictive"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioTest, KindScopesWhichKeysApply) {
  // DCM-only keys under ec2 are typos, not silently-ignored extras.
  EXPECT_THROW(Scenario::parse("[controller]\nkind=ec2\nheadroom=1.5\n"),
               std::runtime_error);
  // Controller tunables without a controller are dead config.
  EXPECT_THROW(Scenario::parse("[controller]\nscale_out_util=0.7\n"), std::runtime_error);
  // Trace keys under a closed-loop workload are dead config.
  EXPECT_THROW(Scenario::parse("[workload]\nkind=rubbos\ntrace=big-spike\n"),
               std::runtime_error);
  // jmeter has no think time.
  EXPECT_THROW(Scenario::parse("[workload]\nkind=jmeter\nthink_seconds=2\n"),
               std::runtime_error);
  // The same keys under the right kinds are fine.
  EXPECT_NO_THROW(Scenario::parse("[controller]\nkind=dcm\nheadroom=1.5\n"));
  EXPECT_NO_THROW(Scenario::parse("[workload]\nkind=trace\ntrace=big-spike\n"));
}

TEST(ScenarioTest, UnknownKindsThrow) {
  EXPECT_THROW(Scenario::parse("[workload]\nkind=weird\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[controller]\nkind=weird\n"), std::runtime_error);
}

TEST(ScenarioTest, ModelTriplesAreValidatedAndNormalized) {
  const Scenario scenario =
      Scenario::parse("[controller]\nkind=dcm\napp_model = 2.84e-2, 1e-4, 7.09e-7\n");
  // Canonical spelling: shortest round-trip form, no spaces.
  EXPECT_NE(scenario.to_text().find("app_model = 0.0284,1e-04,7.09e-07\n"), std::string::npos);
  // The reference models are the defaults, so db_model is not spelled out.
  EXPECT_EQ(scenario.to_text().find("db_model"), std::string::npos);
  // Normalization is a fixed point through the round trip, and the values
  // survive exactly into the runnable config.
  EXPECT_TRUE(Scenario::parse(scenario.to_text()) == scenario);
  const auto experiment = scenario.experiment();
  EXPECT_DOUBLE_EQ(experiment.controller.dcm.app_tier_model.params.s0, 2.84e-2);
  EXPECT_DOUBLE_EQ(experiment.controller.dcm.app_tier_model.params.alpha, 1e-4);
  EXPECT_DOUBLE_EQ(experiment.controller.dcm.app_tier_model.params.beta, 7.09e-7);
  EXPECT_THROW(Scenario::parse("[controller]\nkind=dcm\napp_model = 1,2\n"),
               std::runtime_error);
  EXPECT_THROW(Scenario::parse("[controller]\nkind=dcm\ndb_model = a,b,c\n"),
               std::runtime_error);
}

TEST(ScenarioTest, ExperimentTranslationGoesThroughConfigLoader) {
  const Scenario scenario = Scenario::parse(
      "[hardware]\napp=2\n"
      "[workload]\nkind=jmeter\nusers=64\n"
      "[controller]\nkind=ec2\nscale_out_util=0.7\n"
      "[run]\nduration=120\nseed=5\n");
  const auto experiment = scenario.experiment();
  EXPECT_EQ(experiment.hardware.app, 2);
  EXPECT_EQ(experiment.workload.kind, core::WorkloadSpec::Kind::kJmeter);
  EXPECT_EQ(experiment.workload.users, 64);
  EXPECT_EQ(experiment.controller.name, "ec2");
  EXPECT_DOUBLE_EQ(experiment.controller.policy.scale_out_util, 0.7);
  EXPECT_EQ(experiment.seed, 5u);
}

// Scenario::experiment() is the only translation into ExperimentConfig; these
// pin its defaults, per-kind translation and failure modes.
TEST(ScenarioExperimentTest, DefaultsWhenEmpty) {
  const auto experiment = Scenario::parse("").experiment();
  EXPECT_EQ(experiment.hardware.app, 1);
  EXPECT_EQ(experiment.soft.db_connections, 80);
  EXPECT_EQ(experiment.workload.kind, core::WorkloadSpec::Kind::kRubbosClients);
  EXPECT_FALSE(experiment.controller.enabled());
  EXPECT_DOUBLE_EQ(experiment.duration_seconds, 300.0);
}

TEST(ScenarioExperimentTest, FullExperimentTranslation) {
  const auto experiment = Scenario::parse(
                              "[hardware]\nweb=1\napp=2\ndb=2\n"
                              "[soft]\napp_threads=20\ndb_connections=18\n"
                              "[workload]\nkind=jmeter\nusers=64\n"
                              "[controller]\nkind=ec2\nscale_out_util=0.7\n"
                              "sla_rt=0.8\n"
                              "[run]\nduration=120\nwarmup=10\nmax_vms=6\n")
                              .experiment();
  EXPECT_EQ(experiment.hardware.app, 2);
  EXPECT_EQ(experiment.soft.app_threads, 20);
  EXPECT_EQ(experiment.workload.kind, core::WorkloadSpec::Kind::kJmeter);
  EXPECT_EQ(experiment.workload.users, 64);
  EXPECT_EQ(experiment.controller.name, "ec2");
  EXPECT_DOUBLE_EQ(experiment.controller.policy.scale_out_util, 0.7);
  EXPECT_DOUBLE_EQ(experiment.controller.policy.scale_out_response_time, 0.8);
  EXPECT_EQ(experiment.max_vms_per_tier, 6);
}

TEST(ScenarioExperimentTest, TaxonomyTraceByName) {
  const auto experiment =
      Scenario::parse("[workload]\nkind=trace\ntrace=big-spike\npeak_users=200\n").experiment();
  EXPECT_EQ(experiment.workload.kind, core::WorkloadSpec::Kind::kTrace);
  EXPECT_GE(experiment.workload.trace.max_users(), 170);
  EXPECT_LE(experiment.workload.trace.max_users(), 230);
}

TEST(ScenarioExperimentTest, DcmControllerGetsReferenceModels) {
  const auto experiment = Scenario::parse("[controller]\nkind=dcm\nheadroom=1.5\n").experiment();
  EXPECT_EQ(experiment.controller.name, "dcm");
  EXPECT_DOUBLE_EQ(experiment.controller.dcm.stp_headroom, 1.5);
  EXPECT_NEAR(experiment.controller.dcm.db_tier_model.optimal_concurrency(), 36.0, 1.0);
}

TEST(ScenarioExperimentTest, WorkloadSeedIsRejected) {
  // The two-seed split ([run] seed + [workload] seed) was unified into a
  // single root seed; the old key must fail loudly, not silently no-op.
  EXPECT_THROW(Scenario::parse("[workload]\nkind=rubbos\nseed=9\n"), std::runtime_error);
}

TEST(ScenarioExperimentTest, DcmModelOverridesParsed) {
  const auto experiment =
      Scenario::parse("[controller]\nkind=dcm\napp_model = 2.84e-2, 1e-4, 7.09e-7\n")
          .experiment();
  EXPECT_DOUBLE_EQ(experiment.controller.dcm.app_tier_model.params.s0, 2.84e-2);
  EXPECT_DOUBLE_EQ(experiment.controller.dcm.app_tier_model.params.alpha, 1e-4);
  EXPECT_DOUBLE_EQ(experiment.controller.dcm.app_tier_model.params.beta, 7.09e-7);
  // db model untouched → reference N_b ≈ 36.
  EXPECT_NEAR(experiment.controller.dcm.db_tier_model.optimal_concurrency(), 36.0, 1.0);
  EXPECT_THROW(Scenario::parse("[controller]\nkind=dcm\napp_model = 1,2\n"),
               std::runtime_error);
  EXPECT_THROW(Scenario::parse("[controller]\nkind=dcm\ndb_model = a,b,c\n"),
               std::runtime_error);
}

TEST(ScenarioExperimentTest, UnknownKindsThrow) {
  EXPECT_THROW(Scenario::parse("[workload]\nkind=weird\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[controller]\nkind=weird\n"), std::runtime_error);
  // A trace that is neither a taxonomy name nor a readable CSV parses (it is
  // a path) but cannot be translated.
  const Scenario missing = Scenario::parse("[workload]\nkind=trace\ntrace=/no/such/file.csv\n");
  EXPECT_THROW(missing.experiment(), std::runtime_error);
  // A programmatic kind outside the registry fails at translation too.
  Scenario bogus;
  bogus.controller.name = "pid";
  EXPECT_THROW(bogus.experiment(), std::runtime_error);
}

TEST(ScenarioExperimentTest, ConfigDrivenRunExecutes) {
  const auto experiment = Scenario::parse(
                              "[workload]\nkind=rubbos\nusers=50\n"
                              "[run]\nduration=40\nwarmup=10\n")
                              .experiment();
  const auto result = core::run_experiment(experiment);
  EXPECT_GT(result.completed, 100u);
  EXPECT_EQ(result.errors, 0u);
}

TEST(ScenarioTest, KeyAppliesFollowsDeclaredKinds) {
  Config config;
  config.set("controller", "kind", "dcm");
  EXPECT_TRUE(scenario_key_applies(config, "controller", "headroom"));
  config.set("controller", "kind", "ec2");
  EXPECT_FALSE(scenario_key_applies(config, "controller", "headroom"));
  EXPECT_TRUE(scenario_key_applies(config, "controller", "control_period"));
  config.set("controller", "kind", "none");
  EXPECT_FALSE(scenario_key_applies(config, "controller", "control_period"));
  EXPECT_TRUE(scenario_key_applies(config, "run", "seed"));
  EXPECT_FALSE(scenario_key_applies(config, "run", "sede"));
}

TEST(ScenarioTest, FaultAndResilienceVocabularyRoundTrips) {
  const std::string text =
      "[controller]\nkind=dcm\n"
      "[faults]\ncrash_mttf=90\nslowdown_mttf=120\nslowdown_factor=0.5\n"
      "telemetry_loss_mttf=200\nagent_silence_mttf=150\nagent_silence_duration=20\n"
      "[resilience]\nenabled=true\nclient_timeout=1.5\nclient_retries=3\n"
      "subrequest_timeout=0.5\nhealth_period=4\nwatchdog_periods=3\nmin_fit_r2=0.6\n";
  const Scenario first = Scenario::parse(text);
  EXPECT_DOUBLE_EQ(first.faults.crash_mttf_seconds, 90.0);
  EXPECT_DOUBLE_EQ(first.faults.slowdown_factor, 0.5);
  EXPECT_DOUBLE_EQ(first.faults.agent_silence_duration_seconds, 20.0);
  EXPECT_TRUE(first.resilience.enabled);
  EXPECT_DOUBLE_EQ(first.resilience.client_timeout_seconds, 1.5);
  EXPECT_EQ(first.resilience.client_retries, 3);
  EXPECT_EQ(first.resilience.watchdog_periods, 3);
  EXPECT_DOUBLE_EQ(first.resilience.min_fit_r2, 0.6);

  const Scenario second = Scenario::parse(first.to_text());
  EXPECT_TRUE(first == second);
  EXPECT_EQ(first.to_text(), second.to_text());

  // And the fields survive into the runnable config.
  const auto experiment = first.experiment();
  EXPECT_DOUBLE_EQ(experiment.faults.crash_mttf_seconds, 90.0);
  EXPECT_TRUE(experiment.resilience.enabled);
  EXPECT_EQ(experiment.resilience.client_retries, 3);
  EXPECT_EQ(experiment.resilience.watchdog_periods, 3);
}

TEST(ScenarioTest, ResilienceDetailKeysRequireEnabled) {
  // Detail keys without enabled=true are dead config, not silent extras.
  EXPECT_THROW(Scenario::parse("[resilience]\nclient_timeout=1.5\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[resilience]\nenabled=false\nclient_retries=3\n"),
               std::runtime_error);
  // The watchdog keys additionally require the dcm controller.
  EXPECT_THROW(Scenario::parse("[resilience]\nenabled=true\nwatchdog_periods=2\n"),
               std::runtime_error);
  EXPECT_THROW(Scenario::parse("[controller]\nkind=ec2\n"
                               "[resilience]\nenabled=true\nmin_fit_r2=0.5\n"),
               std::runtime_error);
  EXPECT_NO_THROW(Scenario::parse("[resilience]\nenabled=true\nclient_retries=3\n"));
  EXPECT_NO_THROW(Scenario::parse("[controller]\nkind=dcm\n"
                                  "[resilience]\nenabled=true\nwatchdog_periods=2\n"));
  // [faults] keys are always part of the vocabulary.
  EXPECT_NO_THROW(Scenario::parse("[faults]\ncrash_mttf=120\n"));
  EXPECT_THROW(Scenario::parse("[faults]\ncrash_mtff=120\n"), std::runtime_error);
}

TEST(ScenarioTest, TraceVocabularyRoundTrips) {
  const Scenario first = Scenario::parse("[trace]\nenabled=true\nrate=0.25\n");
  EXPECT_TRUE(first.trace.enabled);
  EXPECT_DOUBLE_EQ(first.trace.rate, 0.25);

  const Scenario second = Scenario::parse(first.to_text());
  EXPECT_TRUE(first == second);
  EXPECT_EQ(first.to_text(), second.to_text());

  const auto experiment = first.experiment();
  EXPECT_TRUE(experiment.trace.enabled);
  EXPECT_DOUBLE_EQ(experiment.trace.rate, 0.25);

  // Disabled tracing emits no [trace] section at all, so a default
  // scenario's canonical text is untouched by the feature.
  EXPECT_EQ(Scenario().to_text().find("[trace]"), std::string::npos);
  EXPECT_FALSE(Scenario().experiment().trace.enabled);
}

TEST(ScenarioTest, TraceDetailKeysRequireEnabled) {
  EXPECT_THROW(Scenario::parse("[trace]\nrate=0.5\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[trace]\nenabled=false\nrate=0.5\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[trace]\nenabled=true\nsample=0.5\n"), std::runtime_error);
  // Rate is a probability; reject anything outside [0, 1].
  EXPECT_THROW(Scenario::parse("[trace]\nenabled=true\nrate=1.5\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[trace]\nenabled=true\nrate=-0.1\n"), std::runtime_error);
  EXPECT_NO_THROW(Scenario::parse("[trace]\nenabled=true\n"));
  EXPECT_NO_THROW(Scenario::parse("[trace]\nenabled=true\nrate=1\n"));
}

TEST(ScenarioTest, KeyAppliesFollowsTraceGate) {
  Config config;
  EXPECT_TRUE(scenario_key_applies(config, "trace", "enabled"));
  EXPECT_FALSE(scenario_key_applies(config, "trace", "rate"));
  config.set("trace", "enabled", "true");
  EXPECT_TRUE(scenario_key_applies(config, "trace", "rate"));
}

TEST(ScenarioTest, KeyAppliesFollowsResilienceGate) {
  Config config;
  EXPECT_TRUE(scenario_key_applies(config, "faults", "crash_mttf"));
  EXPECT_TRUE(scenario_key_applies(config, "resilience", "enabled"));
  EXPECT_FALSE(scenario_key_applies(config, "resilience", "client_timeout"));
  config.set("resilience", "enabled", "true");
  EXPECT_TRUE(scenario_key_applies(config, "resilience", "client_timeout"));
  EXPECT_FALSE(scenario_key_applies(config, "resilience", "watchdog_periods"));
  config.set("controller", "kind", "dcm");
  EXPECT_TRUE(scenario_key_applies(config, "resilience", "watchdog_periods"));
}

TEST(RegistryTest, AllScenariosParseAndRoundTrip) {
  const auto names = scenario_names();
  ASSERT_FALSE(names.empty());
  for (const auto& name : names) {
    SCOPED_TRACE(name);
    const Scenario scenario = get_scenario(name);
    // The registered name is the scenario's own name.
    EXPECT_EQ(scenario.name, name);
    EXPECT_FALSE(scenario.summary.empty());
    // Registered text is strict-parseable and round-trips canonically.
    const Scenario reparsed = Scenario::parse(scenario.to_text());
    EXPECT_TRUE(reparsed == scenario);
  }
}

TEST(RegistryTest, ChaosResilienceScenarioArmsFaultsAndResilience) {
  const Scenario chaos = get_scenario("chaos-resilience");
  EXPECT_EQ(chaos.controller.name, "dcm");
  EXPECT_TRUE(chaos.controller.dcm.online_estimation);
  EXPECT_TRUE(chaos.resilience.enabled);
  const auto experiment = chaos.experiment();
  EXPECT_TRUE(experiment.faults.any_enabled());
  EXPECT_TRUE(experiment.resilience.enabled);
  EXPECT_GT(experiment.faults.crash_mttf_seconds, 0.0);
  EXPECT_GT(experiment.faults.telemetry_loss_mttf_seconds, 0.0);
}

TEST(RegistryTest, TraceAttributionScenarioArmsFullTracing) {
  const Scenario scenario = get_scenario("trace-attribution");
  EXPECT_TRUE(scenario.trace.enabled);
  EXPECT_DOUBLE_EQ(scenario.trace.rate, 1.0);
  // Saturated app tier: far more users than app worker threads, so the
  // waterfall's dominant cause is the app tier's pool-queue wait.
  EXPECT_GT(scenario.workload.users, scenario.soft.app_threads);
  const auto experiment = scenario.experiment();
  EXPECT_TRUE(experiment.trace.enabled);
  EXPECT_DOUBLE_EQ(experiment.trace.rate, 1.0);
}

TEST(RegistryTest, UnknownNameThrowsWithKnownList) {
  EXPECT_FALSE(has_scenario("no-such-scenario"));
  try {
    get_scenario("no-such-scenario");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    // The error should help: it lists the known names.
    EXPECT_NE(std::string(e.what()).find("fig5"), std::string::npos);
  }
}

TEST(RegistryTest, CanonicalScenariosMatchThePaperSetups) {
  const Scenario fig5 = get_scenario("fig5");
  EXPECT_EQ(fig5.workload.kind, WorkloadDecl::Kind::kTrace);
  EXPECT_EQ(fig5.workload.trace, "large-variation");
  EXPECT_EQ(fig5.soft.app_threads, 200);
  EXPECT_EQ(fig5.controller.name, "dcm");
  EXPECT_DOUBLE_EQ(fig5.duration_seconds, 700.0);

  const Scenario ec2 = get_scenario("fig5-ec2");
  EXPECT_EQ(ec2.controller.name, "ec2");
  // Paired comparison: identical deployment, workload and root seed.
  EXPECT_TRUE(ec2.hardware == fig5.hardware);
  EXPECT_TRUE(ec2.soft == fig5.soft);
  EXPECT_TRUE(ec2.workload == fig5.workload);
  EXPECT_EQ(ec2.seed, fig5.seed);

  const Scenario soft_only = get_scenario("ablation-soft-only");
  EXPECT_EQ(soft_only.max_vms, 1);

  const Scenario wrong = get_scenario("ablation-wrong-models");
  const auto experiment = wrong.experiment();
  // The wrong models put the optima near the default pools (≈200 / ≈160).
  EXPECT_NEAR(experiment.controller.dcm.app_tier_model.optimal_concurrency(), 200.0, 10.0);
  EXPECT_NEAR(experiment.controller.dcm.db_tier_model.optimal_concurrency(), 160.0, 10.0);
}

TEST(ScenarioTest, TopologyChain3IsCanonicalAsAnAbsentSection) {
  const Scenario scenario = Scenario::parse("");
  EXPECT_EQ(scenario.topology.kind, core::TopologySpec::Kind::kChain3);
  EXPECT_EQ(scenario.to_text().find("[topology]"), std::string::npos);
  // Spelling it out parses fine but canonicalizes away.
  const Scenario explicit_chain = Scenario::parse("[topology]\nkind = chain3\n");
  EXPECT_TRUE(explicit_chain == scenario);
}

TEST(ScenarioTest, TopologyChain4RoundTrips) {
  const Scenario scenario = Scenario::parse("[topology]\nkind = chain4\n");
  EXPECT_EQ(scenario.topology.kind, core::TopologySpec::Kind::kChain4);
  EXPECT_NE(scenario.to_text().find("kind = chain4"), std::string::npos);
  EXPECT_TRUE(Scenario::parse(scenario.to_text()) == scenario);
  // Graph-only keys are rejected under a chain kind.
  EXPECT_THROW(Scenario::parse("[topology]\nkind = chain4\nnodes = a:web\n"),
               std::runtime_error);
}

TEST(ScenarioTest, TopologyGraphRoundTripsCanonically) {
  const std::string text =
      "[topology]\n"
      "kind = graph\n"
      "nodes = apache:web, tomcat:app, memcache:cache, mysql:db\n"
      "edges = apache->tomcat:1, tomcat->memcache:1, tomcat->mysql:q:managed\n";
  const Scenario first = Scenario::parse(text);
  EXPECT_EQ(first.topology.kind, core::TopologySpec::Kind::kGraph);
  ASSERT_EQ(first.topology.nodes.size(), 4u);
  ASSERT_EQ(first.topology.edges.size(), 3u);
  EXPECT_TRUE(first.topology.edges[2].servlet_calls);
  EXPECT_TRUE(first.topology.edges[2].managed);

  const Scenario second = Scenario::parse(first.to_text());
  EXPECT_TRUE(first == second);
  EXPECT_EQ(first.to_text(), second.to_text());
}

TEST(ScenarioTest, TopologyGraphErrorsAreEager) {
  // Malformed spellings fail at parse.
  EXPECT_THROW(Scenario::parse("[topology]\nkind = ring\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[topology]\nkind = graph\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[topology]\nkind = graph\nnodes = apache\n"),
               std::runtime_error);
  EXPECT_THROW(
      Scenario::parse("[topology]\nkind = graph\nnodes = a:web, b:app\n"
                      "edges = a-b:1\n"),
      std::runtime_error);
  EXPECT_THROW(
      Scenario::parse("[topology]\nkind = graph\nnodes = a:web, b:app\n"
                      "edges = a->b:-2\n"),
      std::runtime_error);
  // Structural violations (a cycle) also fail at parse, not at run time:
  // from_config materializes the graph once to validate it.
  EXPECT_THROW(
      Scenario::parse("[topology]\nkind = graph\nnodes = a:web, b:app, c:db\n"
                      "edges = a->b:1, b->c:1, c->b:1\n"),
      std::runtime_error);
}

TEST(ScenarioTest, GraphScenariosInTheRegistryParse) {
  const Scenario diamond = get_scenario("diamond-cache");
  EXPECT_EQ(diamond.topology.kind, core::TopologySpec::Kind::kGraph);
  EXPECT_EQ(diamond.hardware.app, 3);
  EXPECT_TRUE(Scenario::parse(diamond.to_text()) == diamond);

  const Scenario fanout = get_scenario("fanout-join");
  ASSERT_EQ(fanout.topology.nodes.size(), 5u);
  EXPECT_TRUE(Scenario::parse(fanout.to_text()) == fanout);
}

TEST(ScenarioTest, PredictiveControllerVocabularyRoundTrips) {
  const Scenario scenario = Scenario::parse(
      "[controller]\nkind=predictive\nalpha=0.6\nbeta=0.2\nhorizon=4\nhysteresis=0.05\n");
  const Scenario again = Scenario::parse(scenario.to_text());
  EXPECT_TRUE(scenario == again);
  EXPECT_EQ(again.controller.name, "predictive");
  const auto experiment = scenario.experiment();
  EXPECT_EQ(experiment.controller.name, "predictive");
  EXPECT_DOUBLE_EQ(experiment.controller.predictive.level_alpha, 0.6);
  EXPECT_DOUBLE_EQ(experiment.controller.predictive.trend_beta, 0.2);
  EXPECT_EQ(experiment.controller.predictive.horizon_periods, 4);
  EXPECT_DOUBLE_EQ(experiment.controller.policy.hysteresis, 0.05);
}

TEST(ScenarioTest, QueueingAndPiControllerVocabularyRoundTrips) {
  const Scenario queueing = Scenario::parse("[controller]\nkind=queueing\ntarget_util=0.55\n");
  EXPECT_TRUE(queueing == Scenario::parse(queueing.to_text()));
  EXPECT_DOUBLE_EQ(queueing.experiment().controller.queueing.target_util, 0.55);

  const Scenario pi = Scenario::parse(
      "[controller]\nkind=pi\ntarget_util=0.65\nkp=3\nki=0.25\ndeadband=0.4\n");
  EXPECT_TRUE(pi == Scenario::parse(pi.to_text()));
  const auto experiment = pi.experiment();
  EXPECT_EQ(experiment.controller.name, "pi");
  EXPECT_DOUBLE_EQ(experiment.controller.pi.target_util, 0.65);
  EXPECT_DOUBLE_EQ(experiment.controller.pi.kp, 3.0);
  EXPECT_DOUBLE_EQ(experiment.controller.pi.ki, 0.25);
  EXPECT_DOUBLE_EQ(experiment.controller.pi.deadband, 0.4);
}

TEST(ScenarioTest, ZooKindsScopeTheirTuningKeys) {
  // Family knobs only apply to their family.
  EXPECT_THROW(Scenario::parse("[controller]\nkind=queueing\nalpha=0.5\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[controller]\nkind=predictive\nkp=2\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[controller]\nkind=ec2\ntarget_util=0.6\n"), std::runtime_error);
  // The threshold-rule extension stays with the threshold-rule families.
  EXPECT_THROW(Scenario::parse("[controller]\nkind=pi\nsla_rt=0.5\n"), std::runtime_error);
  // The hysteresis gate belongs to every real controller, but not to none.
  EXPECT_NO_THROW(Scenario::parse("[controller]\nkind=ec2\nhysteresis=0.05\n"));
  EXPECT_NO_THROW(Scenario::parse("[controller]\nkind=pi\nhysteresis=0.05\n"));
  EXPECT_THROW(Scenario::parse("[controller]\nhysteresis=0.05\n"), std::runtime_error);
}

TEST(ScenarioTest, ZooTuningValuesAreValidated) {
  EXPECT_THROW(Scenario::parse("[controller]\nkind=ec2\nhysteresis=-0.1\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[controller]\nkind=predictive\nalpha=0\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[controller]\nkind=predictive\nbeta=1.5\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[controller]\nkind=predictive\nhorizon=0\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[controller]\nkind=queueing\ntarget_util=1\n"),
               std::runtime_error);
  EXPECT_THROW(Scenario::parse("[controller]\nkind=pi\nkp=-1\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[controller]\nkind=pi\ndeadband=-0.5\n"), std::runtime_error);
}

// Every hostile value fails at parse with an error naming its [section]
// key; before these checks each one aborted the run (SIGABRT deep in the
// simulator) or ran silently as a default. Each case overrides one key of a
// registered scenario (plus the gate the key needs to apply).
TEST(ScenarioTest, HostileValuesAreRejectedNamingTheirKey) {
  struct Case {
    const char* base;
    Overrides overrides;
    const char* key;
  };
  const Overrides resilient = {{"resilience.enabled", "true"}};
  const auto with = [](Overrides base, const char* path, const char* value) {
    base.emplace_back(path, value);
    return base;
  };
  const std::vector<Case> cases = {
      {"quickstart", {{"hardware.web", "0"}}, "[hardware] web"},
      {"quickstart", {{"hardware.app", "-1"}}, "[hardware] app"},
      {"quickstart", {{"hardware.db", "0"}}, "[hardware] db"},
      {"diamond-cache", {{"soft.web_threads", "0"}}, "[soft] web_threads"},
      {"quickstart", {{"soft.app_threads", "0"}}, "[soft] app_threads"},
      {"quickstart", {{"soft.db_connections", "0"}}, "[soft] db_connections"},
      {"quickstart", {{"workload.users", "-1"}}, "[workload] users"},
      {"quickstart", {{"workload.think_seconds", "0"}}, "[workload] think_seconds"},
      {"fig5", {{"workload.peak_users", "0"}}, "[workload] peak_users"},
      {"fig5", {{"controller.control_period", "0"}}, "[controller] control_period"},
      {"fig5", {{"controller.control_period", "1e-12"}}, "[controller] control_period"},
      {"quickstart", {{"faults.crash_mttf", "-5"}}, "[faults] crash_mttf"},
      {"quickstart", {{"faults.slowdown_mttf", "-1"}}, "[faults] slowdown_mttf"},
      {"quickstart", {{"faults.slowdown_factor", "0"}}, "[faults] slowdown_factor"},
      {"quickstart", {{"faults.slowdown_factor", "1.5"}}, "[faults] slowdown_factor"},
      {"quickstart", {{"faults.slowdown_duration", "-1"}}, "[faults] slowdown_duration"},
      {"quickstart", {{"faults.telemetry_loss_mttf", "-1"}}, "[faults] telemetry_loss_mttf"},
      {"quickstart",
       {{"faults.telemetry_loss_duration", "-1"}},
       "[faults] telemetry_loss_duration"},
      {"quickstart", {{"faults.agent_silence_mttf", "-1"}}, "[faults] agent_silence_mttf"},
      {"quickstart",
       {{"faults.agent_silence_duration", "-1"}},
       "[faults] agent_silence_duration"},
      {"quickstart", with(resilient, "resilience.client_timeout", "-1"),
       "[resilience] client_timeout"},
      {"quickstart", with(resilient, "resilience.client_retries", "-1"),
       "[resilience] client_retries"},
      {"quickstart", with(resilient, "resilience.client_backoff", "-1"),
       "[resilience] client_backoff"},
      {"quickstart", with(resilient, "resilience.subrequest_timeout", "-1"),
       "[resilience] subrequest_timeout"},
      {"quickstart", with(resilient, "resilience.subrequest_retries", "-1"),
       "[resilience] subrequest_retries"},
      {"quickstart", with(resilient, "resilience.health_period", "0"),
       "[resilience] health_period"},
      {"quickstart", with(resilient, "resilience.health_failure_threshold", "0"),
       "[resilience] health_failure_threshold"},
      {"fig5", with(resilient, "resilience.watchdog_periods", "-1"),
       "[resilience] watchdog_periods"},
      {"fig5", with(resilient, "resilience.min_fit_r2", "1.5"), "[resilience] min_fit_r2"},
      {"quickstart", {{"run.duration", "0"}}, "[run] duration"},
      {"quickstart", {{"run.duration", "1e12"}}, "[run] duration"},  // overflows SimTime
      {"quickstart", {{"run.warmup", "-1"}}, "[run] warmup"},
      {"quickstart", {{"run.warmup", "300"}, {"run.duration", "300"}}, "[run] warmup"},
      {"quickstart", {{"run.max_vms", "0"}}, "[run] max_vms"},
      {"diamond-cache", {{"run.max_vms", "0"}}, "[run] max_vms"},
      // Integers beyond int used to narrow silently (4294967396 ran as 100).
      {"quickstart", {{"workload.users", "4294967396"}}, "[workload] users"},
      {"quickstart", {{"hardware.app", "4294967297"}}, "[hardware] app"},
      {"quickstart", {{"run.max_vms", "4294967297"}}, "[run] max_vms"},
      {"fig5", {{"workload.peak_users", "-4294967295"}}, "[workload] peak_users"},
      // The seed is unsigned: a negative spelling is not an alias.
      {"quickstart", {{"run.seed", "-1586005623519383010"}}, "[run] seed"},
      {"quickstart", {{"run.seed", "18446744073709551616"}}, "[run] seed"},
      // [controller] policy and dcm keys.
      {"fig5", {{"controller.headroom", "0.5"}}, "[controller] headroom"},
      {"fig5", {{"controller.app_model", "-1,0,0"}}, "[controller] app_model"},
      {"fig5", {{"controller.db_model", "nan,1,1"}}, "[controller] db_model"},
      {"fig5", {{"controller.db_model", "1,inf,0"}}, "[controller] db_model"},
      {"fig5-ec2", {{"controller.scale_in_consecutive", "0"}},
       "[controller] scale_in_consecutive"},
      {"fig5-ec2", {{"controller.scale_in_consecutive", "-3"}},
       "[controller] scale_in_consecutive"},
      {"fig5-ec2", {{"controller.scale_out_util", "nan"}}, "[controller] scale_out_util"},
      {"fig5-ec2", {{"controller.scale_out_util", "-1"}}, "[controller] scale_out_util"},
      {"fig5-ec2", {{"controller.scale_in_util", "-0.1"}}, "[controller] scale_in_util"},
      {"fig5-ec2", {{"controller.scale_in_util", "0.8"}}, "[controller] scale_in_util"},
      {"fig5-ec2", {{"controller.scale_out_util", "0.3"}}, "[controller] scale_in_util"},
      {"fig5-ec2", {{"controller.hysteresis", "nan"}}, "[controller] hysteresis"},
      {"fig5-ec2", {{"controller.sla_rt", "nan"}}, "[controller] sla_rt"},
      {"fig5-ec2", {{"controller.sla_rt", "-1"}}, "[controller] sla_rt"},
      {"fig5", {{"controller.control_period", "inf"}}, "[controller] control_period"},
      // DCM needs an app node upstream of a db node; over two cache tiers it
      // used to run, resizing the caches' pools.
      {"quickstart",
       {{"topology.kind", "graph"},
        {"topology.nodes", "a:web, b:cache, c:cache"},
        {"topology.edges", "a->b:1, b->c:1"},
        {"controller.kind", "dcm"}},
       "[controller] kind"},
      {"diamond-cache",
       {{"topology.nodes", "apache:web, mysql:db, tomcat:app"},
        {"topology.edges", "apache->mysql:1, apache->tomcat:1"}},
       "[controller] kind"},
      {"quickstart",
       {{"controller.kind", "pi"}, {"controller.kp", "inf"}},
       "[controller] kp"},
      {"quickstart",
       {{"controller.kind", "predictive"}, {"controller.beta", "nan"}},
       "[controller] beta"},
      {"quickstart", {{"trace.enabled", "true"}, {"trace.rate", "nan"}}, "[trace] rate"},
      {"quickstart", {{"trace.enabled", "true"}, {"trace.rate", "1.5"}}, "[trace] rate"},
  };
  for (const Case& c : cases) {
    const std::string label = std::string(c.base) + " " + c.key;
    try {
      apply_overrides(get_scenario(c.base), c.overrides);
      ADD_FAILURE() << label << ": accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string(c.key) + " must be"), std::string::npos)
          << label << ": " << e.what();
    }
  }
  // NaN lies outside every domain.
  EXPECT_THROW(apply_overrides(get_scenario("quickstart"), {{"run.duration", "nan"}}),
               std::runtime_error);
  EXPECT_THROW(apply_overrides(get_scenario("quickstart"), {{"faults.crash_mttf", "nan"}}),
               std::runtime_error);
}

// NaN and ±inf lie outside the domain of every numeric key: each one, under
// every workload and controller kind with every gate open, fails naming its
// [section] key.
TEST(ScenarioTest, EveryNumericKeyRejectsNanAndInfinity) {
  for (const char* base : {"quickstart", "table1-mysql", "fig5", "diamond-cache"}) {
    for (const char* kind : {"none", "ec2", "dcm", "pi", "predictive", "queueing"}) {
      const Scenario open = apply_overrides(
          get_scenario(base),
          {{"controller.kind", kind}, {"resilience.enabled", "true"}, {"trace.enabled", "true"}});
      const Config canonical = open.to_config();
      for (const auto& [section, keys] : canonical.sections()) {
        for (const auto& [key, value] : keys) {
          if (!parse_double(value)) continue;  // names, kinds, lists, model triples
          for (const char* hostile : {"nan", "inf", "-inf"}) {
            const std::string label = std::string(base) + "/" + kind + " [" + section + "] " +
                                      key + " = " + hostile;
            try {
              apply_overrides(open, {{section + "." + key, hostile}});
              ADD_FAILURE() << label << ": accepted";
            } catch (const std::runtime_error& e) {
              EXPECT_NE(std::string(e.what()).find("[" + section + "] " + key), std::string::npos)
                  << label << ": " << e.what();
            }
          }
        }
      }
    }
  }
}

TEST(ScenarioTest, KeyAppliesFollowsZooKinds) {
  Config config;
  config.set("controller", "kind", "predictive");
  EXPECT_TRUE(scenario_key_applies(config, "controller", "alpha"));
  EXPECT_TRUE(scenario_key_applies(config, "controller", "hysteresis"));
  EXPECT_FALSE(scenario_key_applies(config, "controller", "kp"));
  EXPECT_FALSE(scenario_key_applies(config, "controller", "target_util"));
  config.set("controller", "kind", "pi");
  EXPECT_TRUE(scenario_key_applies(config, "controller", "kp"));
  EXPECT_TRUE(scenario_key_applies(config, "controller", "target_util"));
  EXPECT_FALSE(scenario_key_applies(config, "controller", "alpha"));
  config.set("controller", "kind", "queueing");
  EXPECT_TRUE(scenario_key_applies(config, "controller", "target_util"));
  EXPECT_FALSE(scenario_key_applies(config, "controller", "sla_rt"));
}

}  // namespace
}  // namespace dcm::scenario
