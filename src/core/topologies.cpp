#include "core/topologies.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

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
  lb.server.pre_fraction = 0.5;
  lb.server.demand_cv = 0.05;
  lb.initial_vms = 1;
  lb.min_vms = 1;
  lb.max_vms = 1;
  return lb;
}

/// Per-role tier template for every graph node. Web/app/db are the calibrated
/// RUBBoS tiers (Apache, Tomcat, MySQL); lb is the HAProxy pass-through;
/// cache is a memcached-like in-memory store (scalable, single CPU phase).
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
      // max_connections-style cap, far above any sane upstream pool: the
      // concurrency reaching MySQL is governed by the Tomcat DBConnP, exactly
      // as in the paper.
      tier.server.max_threads = 1000;
      tier.server.pre_fraction = 1.0;  // leaf: single CPU phase
      tier.server.demand_cv = 0.25;
      tier.initial_vms = hw.db;
      tier.max_vms = std::max(hw.db, max_vms_per_tier);
      break;
    case ntier::NodeRole::kLb:
      tier = haproxy_tier_config();
      tier.name = name;
      return tier;
    case ntier::NodeRole::kCache:
      tier.server.cpu = cache_cpu_model();
      tier.server.max_threads = 500;
      tier.server.pre_fraction = 1.0;  // leaf: single CPU phase
      tier.server.demand_cv = 0.10;
      tier.initial_vms = 1;
      tier.max_vms = max_vms_per_tier;
      break;
  }
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

ntier::ServiceGraph build_service_graph(const TopologySpec& spec, HardwareConfig hw,
                                        SoftAllocation soft, int max_vms_per_tier) {
  const auto require_positive = [](const char* what, int value) {
    if (value < 1) spec_error(std::string(what) + " must be >= 1, got " + std::to_string(value));
  };
  require_positive("hardware web", hw.web);
  require_positive("hardware app", hw.app);
  require_positive("hardware db", hw.db);
  require_positive("soft web_threads", soft.web_threads);
  require_positive("soft app_threads", soft.app_threads);
  require_positive("soft db_connections", soft.db_connections);
  require_positive("max_vms_per_tier", max_vms_per_tier);
  const auto node = [&](const std::string& name, ntier::NodeRole role) {
    return ntier::ServiceNode{graph_node_tier(name, role, hw, soft, max_vms_per_tier), role};
  };
  if (spec.kind == TopologySpec::Kind::kChain3) {
    // The chain's hops in depth order: edge id == source depth.
    std::vector<ntier::ServiceNode> nodes = {node("apache", ntier::NodeRole::kWeb),
                                             node("tomcat", ntier::NodeRole::kApp),
                                             node("mysql", ntier::NodeRole::kDb)};
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
    std::vector<ntier::ServiceNode> nodes = {
        node("apache", ntier::NodeRole::kWeb), node("tomcat", ntier::NodeRole::kApp),
        node("haproxy", ntier::NodeRole::kLb), node("mysql", ntier::NodeRole::kDb)};
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
    nodes.push_back(node(n.name, role));
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

ntier::ServiceGraph mysql_only_graph(int worker_cap) {
  if (worker_cap < 1) spec_error("worker_cap must be >= 1, got " + std::to_string(worker_cap));
  // One VM, never scaled.
  ntier::TierConfig db = graph_node_tier("mysql", ntier::NodeRole::kDb, {}, {},
                                         /*max_vms_per_tier=*/1);
  db.server.max_threads = worker_cap;
  return ntier::ServiceGraph({{db, ntier::NodeRole::kDb}}, {});
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
