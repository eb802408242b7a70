// NTierApp — the deployed application: a service-graph DAG whose node 0 is
// the client-facing root. The paper's chain (Apache web → Tomcat app →
// MySQL DB) is the degenerate graph whose edge i connects depth i to depth
// i+1 (core::build_service_graph).
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "ntier/request.h"
#include "ntier/service_graph.h"
#include "ntier/tier.h"
#include "sim/engine.h"

namespace dcm::ntier {

class NTierApp {
 public:
  /// One Tier per graph node (node id = tier depth, node 0 client-facing),
  /// edges wired per the graph's out-edge lists. Every node forks the seed's
  /// Rng exactly once, in node-id order, before any wiring happens.
  NTierApp(sim::Engine& engine, ServiceGraph graph, uint64_t seed);

  NTierApp(const NTierApp&) = delete;
  NTierApp& operator=(const NTierApp&) = delete;

  /// Injects one HTTP request at the front tier.
  void submit(const RequestPtr& request, DoneFn done);

  size_t tier_count() const { return tiers_.size(); }
  Tier& tier(size_t index);
  const Tier& tier(size_t index) const;
  /// Finds a tier by name; nullptr if absent.
  Tier* find_tier(const std::string& name);

  sim::Engine& engine() { return *engine_; }
  Rng& rng() { return rng_; }
  uint64_t next_request_id() { return next_request_id_++; }

  /// The deployment's service graph.
  const ServiceGraph& graph() const { return graph_; }

 private:
  sim::Engine* engine_;
  Rng rng_;
  ServiceGraph graph_;
  std::vector<std::unique_ptr<Tier>> tiers_;
  uint64_t next_request_id_ = 1;
};

}  // namespace dcm::ntier
