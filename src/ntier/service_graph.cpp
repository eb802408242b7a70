#include "ntier/service_graph.h"

#include <stdexcept>
#include <utility>

#include "model/visit_ratio.h"

namespace dcm::ntier {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error("ServiceGraph: " + message);
}

}  // namespace

const char* node_role_name(NodeRole role) {
  switch (role) {
    case NodeRole::kWeb: return "web";
    case NodeRole::kApp: return "app";
    case NodeRole::kDb: return "db";
    case NodeRole::kLb: return "lb";
    case NodeRole::kCache: return "cache";
  }
  return "?";
}

bool parse_node_role(const std::string& text, NodeRole* out) {
  if (text == "web") *out = NodeRole::kWeb;
  else if (text == "app") *out = NodeRole::kApp;
  else if (text == "db") *out = NodeRole::kDb;
  else if (text == "lb") *out = NodeRole::kLb;
  else if (text == "cache") *out = NodeRole::kCache;
  else return false;
  return true;
}

ServiceGraph::ServiceGraph(std::vector<ServiceNode> nodes, std::vector<ServiceEdge> edges)
    : nodes_(std::move(nodes)), edges_(std::move(edges)) {
  if (nodes_.empty()) fail("graph needs at least one node");
  if (nodes_.size() > kMaxGraphNodes) {
    fail("too many nodes (" + std::to_string(nodes_.size()) + " > " +
         std::to_string(kMaxGraphNodes) + ")");
  }
  if (edges_.size() > kMaxGraphEdges) {
    fail("too many edges (" + std::to_string(edges_.size()) + " > " +
         std::to_string(kMaxGraphEdges) + ")");
  }

  const int n = static_cast<int>(nodes_.size());
  out_edges_.assign(nodes_.size(), {});
  std::vector<int> in_degree(nodes_.size(), 0);
  std::vector<model::VisitEdge> visit_edges;
  visit_edges.reserve(edges_.size());
  for (size_t i = 0; i < edges_.size(); ++i) {
    const ServiceEdge& e = edges_[i];
    if (e.from < 0 || e.from >= n || e.to < 0 || e.to >= n) {
      fail("edge " + std::to_string(i) + " references a node outside [0, " +
           std::to_string(n) + ")");
    }
    if (e.from == e.to) fail("edge " + std::to_string(i) + " is a self-loop");
    if (e.fixed_calls < 0) fail("edge " + std::to_string(i) + " has negative calls");
    if (e.mean_calls < 0.0) fail("edge " + std::to_string(i) + " has negative mean calls");
    if (e.pool_capacity < 0) fail("edge " + std::to_string(i) + " has negative pool capacity");
    if (e.managed) {
      if (e.pool_capacity <= 0) {
        fail("edge " + std::to_string(i) + " is managed but carries no connection pool");
      }
      if (managed_edge_ >= 0) {
        fail("at most one managed edge is supported (edges " +
             std::to_string(managed_edge_) + " and " + std::to_string(i) + ")");
      }
      managed_edge_ = static_cast<int>(i);
    }
    out_edges_[static_cast<size_t>(e.from)].push_back(static_cast<int>(i));
    ++in_degree[static_cast<size_t>(e.to)];
    visit_edges.push_back({e.from, e.to,
                           e.servlet_calls ? e.mean_calls
                                           : static_cast<double>(e.fixed_calls)});
  }

  if (in_degree[0] != 0) fail("node 0 must be the root (it has an in-edge)");
  for (int i = 1; i < n; ++i) {
    if (in_degree[static_cast<size_t>(i)] == 0) {
      fail("node " + std::to_string(i) + " (" + nodes_[static_cast<size_t>(i)].tier.name +
           ") is unreachable from the root");
    }
  }
  for (int i = 0; i < n; ++i) {
    if (out_edges_[static_cast<size_t>(i)].size() > kMaxFanOut) {
      fail("node " + std::to_string(i) + " fans out to " +
           std::to_string(out_edges_[static_cast<size_t>(i)].size()) + " edges (max " +
           std::to_string(kMaxFanOut) + ")");
    }
  }

  // Throws with the cyclic node set on a cycle; also yields the static V_m.
  visit_ratios_ = model::propagate_visit_ratios(nodes_.size(), visit_edges);
}

int ServiceGraph::first_node_with_role(NodeRole role) const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].role == role) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace dcm::ntier
