#include "core/topologies.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/check.h"

namespace dcm::core {

namespace {

[[noreturn]] void spec_error(const std::string& message) {
  throw std::runtime_error("topology: " + message);
}

/// The HAProxy pass-through tier of the 4-tier layout: forwarding work only,
/// effectively unbounded event loop, never scaled (as in the paper).
ntier::TierConfig haproxy_tier_config() {
  ntier::TierConfig lb;
  lb.name = "haproxy";
  lb.server.cpu.params = {5.0e-5, 1.0e-7, 1.0e-10};  // ~50 µs per forward
  lb.server.cpu.thrash_threshold = 1e18;
  lb.server.cpu.thrash_factor = 0.0;
  lb.server.max_threads = 10000;
  lb.server.downstream_connections = 0;
  lb.server.pre_fraction = 0.5;
  lb.server.demand_cv = 0.05;
  lb.initial_vms = 1;
  lb.min_vms = 1;
  lb.max_vms = 1;
  return lb;
}

/// Per-role tier template for kGraph nodes. Web/app/db reuse the calibrated
/// rubbos tiers; lb is the HAProxy pass-through; cache is a memcached-like
/// in-memory store (scalable, single CPU phase).
ntier::TierConfig graph_node_tier(const std::string& name, ntier::NodeRole role,
                                  HardwareConfig hw, SoftAllocation soft,
                                  int max_vms_per_tier) {
  ntier::TierConfig tier;
  tier.name = name;
  switch (role) {
    case ntier::NodeRole::kWeb:
      tier.server.cpu = apache_cpu_model();
      tier.server.max_threads = soft.web_threads;
      tier.server.pre_fraction = 0.5;
      tier.server.demand_cv = 0.10;
      tier.initial_vms = hw.web;
      tier.max_vms = std::max(hw.web, max_vms_per_tier);
      break;
    case ntier::NodeRole::kApp:
      tier.server.cpu = tomcat_cpu_model();
      tier.server.max_threads = soft.app_threads;
      tier.server.pre_fraction = 0.5;
      tier.server.demand_cv = 0.25;
      tier.initial_vms = hw.app;
      tier.max_vms = std::max(hw.app, max_vms_per_tier);
      break;
    case ntier::NodeRole::kDb:
      tier.server.cpu = mysql_cpu_model();
      tier.server.max_threads = 1000;
      tier.server.pre_fraction = 1.0;  // leaf: single CPU phase
      tier.server.demand_cv = 0.25;
      tier.initial_vms = hw.db;
      tier.max_vms = std::max(hw.db, max_vms_per_tier);
      break;
    case ntier::NodeRole::kLb:
      return haproxy_tier_config();
    case ntier::NodeRole::kCache:
      tier.server.cpu = cache_cpu_model();
      tier.server.max_threads = 500;
      tier.server.pre_fraction = 1.0;  // leaf: single CPU phase
      tier.server.demand_cv = 0.10;
      tier.initial_vms = 1;
      tier.max_vms = max_vms_per_tier;
      break;
  }
  tier.server.downstream_connections = 0;  // pools are declared on edges
  tier.min_vms = 1;
  return tier;
}

}  // namespace

ntier::CpuModelConfig apache_cpu_model() {
  ntier::CpuModelConfig cpu;
  cpu.params = {1.0e-3, 2.0e-5, 1.0e-8};  // light proxy work, near-linear scaling
  cpu.thrash_threshold = 1e18;
  cpu.thrash_factor = 0.0;
  return cpu;
}

ntier::CpuModelConfig tomcat_cpu_model() {
  ntier::CpuModelConfig cpu;
  // Table I Tomcat column: S0=2.84e-2, α=9.87e-3, β=4.54e-5 ⇒ N_b ≈ 20.
  cpu.params = {2.84e-2, 9.87e-3, 4.54e-5};
  cpu.thrash_threshold = 300.0;  // JVM-side collapse far beyond normal pools
  cpu.thrash_factor = 1.0e-4;
  return cpu;
}

ntier::CpuModelConfig mysql_cpu_model() {
  ntier::CpuModelConfig cpu;
  // Table I MySQL column (per query): S0=7.19e-3, α=5.04e-3, β=1.65e-6
  // ⇒ N_b ≈ 36. Thrash threshold 64: "reasonable between 20 and 80",
  // collapse well before 160 (Fig. 2a / Sec. V-B narrative).
  cpu.params = {7.19e-3, 5.04e-3, 1.65e-6};
  cpu.thrash_threshold = 64.0;
  cpu.thrash_factor = 1.0e-4;
  return cpu;
}

ntier::CpuModelConfig cache_cpu_model() {
  ntier::CpuModelConfig cpu;
  // Memcached-like GET: ~2 ms mean including the network hop, tiny
  // per-thread overhead, no thrash regime in any reachable range.
  cpu.params = {2.0e-3, 2.0e-5, 1.0e-9};
  cpu.thrash_threshold = 1e18;
  cpu.thrash_factor = 0.0;
  return cpu;
}

ntier::AppConfig rubbos_app_config(HardwareConfig hw, SoftAllocation soft, uint64_t seed,
                                   int max_vms_per_tier) {
  DCM_CHECK(hw.web >= 1 && hw.app >= 1 && hw.db >= 1);
  DCM_CHECK(soft.web_threads >= 1 && soft.app_threads >= 1 && soft.db_connections >= 1);

  ntier::AppConfig config;
  config.seed = seed;

  ntier::TierConfig web;
  web.name = "apache";
  web.server.cpu = apache_cpu_model();
  web.server.max_threads = soft.web_threads;
  web.server.downstream_connections = 0;  // HAProxy fronts the app tier; no per-Apache cap
  web.server.pre_fraction = 0.5;
  web.server.demand_cv = 0.10;
  web.initial_vms = hw.web;
  web.min_vms = 1;
  web.max_vms = std::max(hw.web, max_vms_per_tier);

  ntier::TierConfig app;
  app.name = "tomcat";
  app.server.cpu = tomcat_cpu_model();
  app.server.max_threads = soft.app_threads;
  app.server.downstream_connections = soft.db_connections;
  app.server.pre_fraction = 0.5;
  app.server.demand_cv = 0.25;
  app.initial_vms = hw.app;
  app.min_vms = 1;
  app.max_vms = std::max(hw.app, max_vms_per_tier);

  ntier::TierConfig db;
  db.name = "mysql";
  db.server.cpu = mysql_cpu_model();
  // max_connections-style cap, far above any sane upstream pool: the
  // concurrency reaching MySQL is governed by the Tomcat DBConnP, exactly
  // as in the paper.
  db.server.max_threads = 1000;
  db.server.downstream_connections = 0;
  db.server.pre_fraction = 1.0;  // leaf: single CPU phase
  db.server.demand_cv = 0.25;
  db.initial_vms = hw.db;
  db.min_vms = 1;
  db.max_vms = std::max(hw.db, max_vms_per_tier);

  config.tiers = {web, app, db};
  return config;
}

ntier::ServiceGraph build_service_graph(const TopologySpec& spec, HardwareConfig hw,
                                        SoftAllocation soft, int max_vms_per_tier) {
  if (spec.kind == TopologySpec::Kind::kChain3) {
    // Byte-identical tier templates to the legacy chain app; the edges are
    // the chain's hops in depth order, so edge id == source depth and the
    // graph deployment reproduces the chain digests bit-for-bit.
    const ntier::AppConfig chain = rubbos_app_config(hw, soft, /*seed=*/1, max_vms_per_tier);
    std::vector<ntier::ServiceNode> nodes;
    nodes.push_back({chain.tiers[0], ntier::NodeRole::kWeb});
    nodes.push_back({chain.tiers[1], ntier::NodeRole::kApp});
    nodes.push_back({chain.tiers[2], ntier::NodeRole::kDb});
    std::vector<ntier::ServiceEdge> edges;
    edges.push_back({/*from=*/0, /*to=*/1, /*fixed_calls=*/1, /*servlet_calls=*/false,
                     /*mean_calls=*/1.0, /*pool_capacity=*/0, /*managed=*/false});
    // The app→db edge carries the app tier's DBConnP, the DCM-actuated
    // soft resource.
    edges.push_back({/*from=*/1, /*to=*/2, /*fixed_calls=*/0, /*servlet_calls=*/true,
                     /*mean_calls=*/kDbVisitRatio, /*pool_capacity=*/soft.db_connections,
                     /*managed=*/true});
    return ntier::ServiceGraph(std::move(nodes), std::move(edges));
  }
  if (spec.kind == TopologySpec::Kind::kChain4) {
    const ntier::AppConfig chain = rubbos_app_config(hw, soft, /*seed=*/1, max_vms_per_tier);
    std::vector<ntier::ServiceNode> nodes;
    nodes.push_back({chain.tiers[0], ntier::NodeRole::kWeb});
    nodes.push_back({chain.tiers[1], ntier::NodeRole::kApp});
    nodes.push_back({haproxy_tier_config(), ntier::NodeRole::kLb});
    nodes.push_back({chain.tiers[2], ntier::NodeRole::kDb});
    std::vector<ntier::ServiceEdge> edges;
    edges.push_back({0, 1, 1, false, 1.0, 0, false});
    // Each app-tier query takes one LB hop; the app's DBConnP throttles the
    // app→lb calls exactly as the old 4-tier hop plumbing did.
    edges.push_back({1, 2, 0, true, kDbVisitRatio, soft.db_connections, true});
    edges.push_back({2, 3, 1, false, 1.0, 0, false});
    return ntier::ServiceGraph(std::move(nodes), std::move(edges));
  }

  // kGraph: named nodes with roles, edges by name.
  if (spec.nodes.empty()) spec_error("graph topology declares no nodes");
  std::unordered_map<std::string, int> ids;
  std::vector<ntier::ServiceNode> nodes;
  nodes.reserve(spec.nodes.size());
  for (const auto& n : spec.nodes) {
    if (n.name.empty()) spec_error("graph node with empty name");
    ntier::NodeRole role;
    if (!ntier::parse_node_role(n.role, &role)) {
      spec_error("node '" + n.name + "' has unknown role '" + n.role +
                 "' (want web|app|db|lb|cache)");
    }
    if (!ids.emplace(n.name, static_cast<int>(nodes.size())).second) {
      spec_error("duplicate node name '" + n.name + "'");
    }
    nodes.push_back({graph_node_tier(n.name, role, hw, soft, max_vms_per_tier), role});
  }
  std::vector<ntier::ServiceEdge> edges;
  edges.reserve(spec.edges.size());
  for (const auto& e : spec.edges) {
    const auto from = ids.find(e.from);
    const auto to = ids.find(e.to);
    if (from == ids.end()) spec_error("edge references undeclared node '" + e.from + "'");
    if (to == ids.end()) spec_error("edge references undeclared node '" + e.to + "'");
    if (!e.servlet_calls && e.calls < 0) {
      spec_error("edge " + e.from + "->" + e.to + " has negative calls");
    }
    ntier::ServiceEdge edge;
    edge.from = from->second;
    edge.to = to->second;
    edge.fixed_calls = e.servlet_calls ? 0 : e.calls;
    edge.servlet_calls = e.servlet_calls;
    edge.mean_calls = e.servlet_calls ? kDbVisitRatio : static_cast<double>(e.calls);
    edge.pool_capacity = e.managed ? soft.db_connections : 0;
    edge.managed = e.managed;
    edges.push_back(edge);
  }
  return ntier::ServiceGraph(std::move(nodes), std::move(edges));
}

ntier::ServiceGraph rubbos_4tier_graph(HardwareConfig hw, SoftAllocation soft,
                                       int max_vms_per_tier) {
  TopologySpec spec;
  spec.kind = TopologySpec::Kind::kChain4;
  return build_service_graph(spec, hw, soft, max_vms_per_tier);
}

ntier::AppConfig mysql_only_app_config(int worker_cap, uint64_t seed) {
  DCM_CHECK(worker_cap >= 1);
  ntier::AppConfig config;
  config.seed = seed;
  ntier::TierConfig db;
  db.name = "mysql";
  db.server.cpu = mysql_cpu_model();
  db.server.max_threads = worker_cap;
  db.server.downstream_connections = 0;
  db.server.pre_fraction = 1.0;
  db.server.demand_cv = 0.25;
  db.initial_vms = 1;
  db.min_vms = 1;
  db.max_vms = 1;
  config.tiers = {db};
  return config;
}

workload::RequestFactory mysql_query_factory(const workload::ServletCatalog& catalog) {
  return [&catalog](sim::Arena* arena, uint64_t id, Rng& rng, sim::SimTime now) {
    const auto& servlet = catalog.servlet(catalog.sample(rng));
    auto req = ntier::make_request_context(arena);
    req->id = id;
    req->created = now;
    req->demand_scale = {servlet.db_scale};
    req->downstream_calls = {0};
    return req;
  };
}

model::ConcurrencyModel tomcat_reference_model(int servers) {
  model::ConcurrencyModel m;
  m.params = tomcat_cpu_model().params;
  m.gamma = 1.0;
  m.servers = servers;
  m.visit_ratio = 1.0;
  return m;
}

model::ConcurrencyModel mysql_reference_model(int servers) {
  model::ConcurrencyModel m;
  m.params = mysql_cpu_model().params;
  m.gamma = 1.0;
  m.servers = servers;
  m.visit_ratio = kDbVisitRatio;
  return m;
}

}  // namespace dcm::core
