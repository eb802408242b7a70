// The paper's alternative 4-tier deployment (web/app/db-lb/db), expressed
// as a degenerate chain graph (rubbos_4tier_graph).
#include <gtest/gtest.h>

#include "bus/broker.h"
#include "control/dcm_controller.h"
#include "core/topologies.h"
#include "ntier/monitor_agent.h"
#include "workload/closed_loop.h"

namespace dcm {
namespace {

TEST(FourTierTest, TopologyHasFourTiersWithLbBetweenAppAndDb) {
  sim::Engine engine;
  ntier::NTierApp app(engine, core::rubbos_4tier_graph({1, 1, 1}, {1000, 100, 80}), 1);
  ASSERT_EQ(app.tier_count(), 4u);
  EXPECT_EQ(app.tier(0).name(), "apache");
  EXPECT_EQ(app.tier(1).name(), "tomcat");
  EXPECT_EQ(app.tier(2).name(), "haproxy");
  EXPECT_EQ(app.tier(3).name(), "mysql");
  ASSERT_EQ(app.graph().edge_count(), 3u);
  EXPECT_TRUE(app.graph().edge(1).managed);
}

TEST(FourTierTest, RequestsFlowThroughAllFourTiers) {
  sim::Engine engine;
  ntier::NTierApp app(engine, core::rubbos_4tier_graph({1, 1, 1}, {1000, 100, 80}), 1);
  const workload::ServletCatalog catalog = workload::ServletCatalog::browse_only_mix();
  auto generator = workload::make_rubbos_clients(engine, app, catalog, 100, 3.0, 77);
  generator->start();
  engine.run_until(sim::from_seconds(60.0));

  const auto completed = generator->stats().completed();
  EXPECT_GT(completed, 1000u);
  EXPECT_EQ(generator->stats().errors(), 0u);
  // Forced flow: LB and DB both see ~V_db sub-requests per HTTP request.
  EXPECT_NEAR(static_cast<double>(app.tier(2).completed()) / completed,
              catalog.mean_db_queries(), 0.1);
  EXPECT_NEAR(static_cast<double>(app.tier(3).completed()) / completed,
              catalog.mean_db_queries(), 0.1);
}

TEST(FourTierTest, LbTierAddsNegligibleLatency) {
  // Same workload on 3-tier and 4-tier: the extra hop costs microseconds.
  const workload::ServletCatalog catalog = workload::ServletCatalog::browse_only_mix();
  double rt3, rt4;
  {
    sim::Engine engine;
    ntier::NTierApp app(engine, core::build_service_graph({}, {1, 1, 1}, {1000, 100, 80}),
                        /*seed=*/1);
    auto generator = workload::make_rubbos_clients(engine, app, catalog, 100, 3.0, 77);
    generator->start();
    engine.run_until(sim::from_seconds(90.0));
    rt3 = generator->stats().response_time_stats().mean();
  }
  {
    sim::Engine engine;
    ntier::NTierApp app(engine, core::rubbos_4tier_graph({1, 1, 1}, {1000, 100, 80}), 1);
    auto generator = workload::make_rubbos_clients(engine, app, catalog, 100, 3.0, 77);
    generator->start();
    engine.run_until(sim::from_seconds(90.0));
    rt4 = generator->stats().response_time_stats().mean();
  }
  EXPECT_NEAR(rt4, rt3, rt3 * 0.1 + 0.002);
}

TEST(FourTierTest, DcmControlsTheDbTierThroughTheLb) {
  sim::Engine engine;
  ntier::NTierApp app(engine, core::rubbos_4tier_graph({1, 1, 1}, {1000, 200, 80}), 1);
  bus::Broker broker;
  ntier::MonitorFleet fleet(engine, app, broker);

  control::DcmConfig dcm;
  dcm.app_tier_model = core::tomcat_reference_model();
  dcm.db_tier_model = core::mysql_reference_model();
  // mysql sits behind the LB tier: the roles, not the depths, name the pair.
  const auto pair = control::DcmController::managed_pair(app.graph());
  ASSERT_TRUE(pair.has_value());
  EXPECT_EQ(pair->first, 1u);
  EXPECT_EQ(pair->second, 3u);
  control::DcmController controller(engine, app, broker, {}, dcm);
  controller.start();

  // The APP-agent deployed the optima at construction.
  EXPECT_EQ(app.tier(1).current_thread_pool_size(), controller.app_tier_nb());
  EXPECT_EQ(app.tier(1).current_downstream_connections(), controller.db_tier_nb());

  // Under saturating load the managed deployment keeps DB concurrency at
  // the optimum even though requests pass through the LB tier.
  const workload::ServletCatalog catalog = workload::ServletCatalog::browse_only_mix();
  auto generator = workload::make_rubbos_clients(engine, app, catalog, 500, 3.0, 77);
  generator->start();
  int max_db_conc = 0;
  engine.schedule_periodic(sim::kNanosPerSecond, [&] {
    max_db_conc = std::max(max_db_conc, app.tier(3).total_in_flight());
  });
  engine.run_until(sim::from_seconds(60.0));
  EXPECT_LE(max_db_conc, controller.db_tier_nb() * app.tier(3).active_vm_count() + 2);
}

}  // namespace
}  // namespace dcm
