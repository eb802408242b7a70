#include "scenario/scenario.h"

#include <charconv>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/strings.h"
#include "workload/trace_taxonomy.h"

namespace dcm::scenario {
namespace {

// Shortest text form that parses back to the exact same double — the
// canonical number format for scenario emission ("15", "0.8", "2.84e-02").
std::string format_double(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

std::string format_int(int64_t value) { return std::to_string(value); }

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error("scenario: " + message);
}

// Typed reads that fall back to the field's current value, so each default
// is written once: in the declaration structs, or in the control-layer
// configs they take their defaults from.
void read(const Config& config, const std::string& section, const std::string& key,
          double& field) {
  field = config.get_double(section, key, field);
}

void read(const Config& config, const std::string& section, const std::string& key,
          int& field) {
  field = static_cast<int>(config.get_int(section, key, field));
}

void read(const Config& config, const std::string& section, const std::string& key,
          bool& field) {
  field = config.get_bool(section, key, field);
}

void read(const Config& config, const std::string& section, const std::string& key,
          std::string& field) {
  field = config.get_string(section, key, field);
}

// Parses an "s0,alpha,beta" model-override triple.
model::ServiceTimeParams parse_model_triple(const std::string& key, const std::string& value) {
  std::vector<double> parts;
  for (const auto& field : split(value, ',')) {
    const auto parsed = parse_double(std::string(trim(field)));
    if (!parsed) fail("[controller] " + key + " must be 's0,alpha,beta', got: " + value);
    parts.push_back(*parsed);
  }
  if (parts.size() != 3) {
    fail("[controller] " + key + " must be 's0,alpha,beta', got: " + value);
  }
  return {parts[0], parts[1], parts[2]};
}

// Validates a model-override triple and returns its canonical spelling, so
// stored scenarios are normalization fixed points.
std::string normalize_model_triple(const std::string& key, const std::string& value) {
  const model::ServiceTimeParams params = parse_model_triple(key, value);
  return format_double(params.s0) + "," + format_double(params.alpha) + "," +
         format_double(params.beta);
}

[[noreturn]] void topology_error(const std::string& message) { fail("[topology] " + message); }

core::TopologySpec::Node parse_topology_node(const std::string& field) {
  const std::vector<std::string> parts = split(field, ':');
  if (parts.size() != 2) {
    topology_error("node '" + field + "' must be 'name:role'");
  }
  core::TopologySpec::Node node;
  node.name = std::string(trim(parts[0]));
  node.role = std::string(trim(parts[1]));
  if (node.name.empty() || node.role.empty()) {
    topology_error("node '" + field + "' must be 'name:role'");
  }
  return node;
}

core::TopologySpec::Edge parse_topology_edge(const std::string& field) {
  // from->to[:calls][:managed]; calls is a non-negative integer or 'q'.
  const std::vector<std::string> parts = split(field, ':');
  if (parts.empty() || parts.size() > 3) {
    topology_error("edge '" + field + "' must be 'from->to:calls[:managed]'");
  }
  core::TopologySpec::Edge edge;
  const size_t arrow = parts[0].find("->");
  if (arrow == std::string::npos) {
    topology_error("edge '" + field + "' is missing '->'");
  }
  edge.from = std::string(trim(std::string_view(parts[0]).substr(0, arrow)));
  edge.to = std::string(trim(std::string_view(parts[0]).substr(arrow + 2)));
  if (edge.from.empty() || edge.to.empty()) {
    topology_error("edge '" + field + "' must name both endpoints");
  }
  if (parts.size() >= 2) {
    const std::string calls(trim(parts[1]));
    if (calls == "q") {
      edge.servlet_calls = true;
    } else {
      const auto parsed = parse_int(calls);
      if (!parsed || *parsed < 0) {
        topology_error("edge '" + field + "' calls must be a non-negative integer or 'q'");
      }
      edge.calls = static_cast<int>(*parsed);
    }
  }
  if (parts.size() == 3) {
    if (trim(parts[2]) != "managed") {
      topology_error("edge '" + field + "' trailing field must be 'managed'");
    }
    edge.managed = true;
  }
  return edge;
}

// Parses the optional [topology] section. Strict: throws on an unknown kind,
// malformed node/edge spellings, or graph-only keys (nodes/edges) under a
// chain kind. Absent section = chain3.
core::TopologySpec topology_spec_from_config(const Config& config) {
  core::TopologySpec spec;
  const std::string kind = config.get_string("topology", "kind", "chain3");
  if (kind == "chain3") {
    spec.kind = core::TopologySpec::Kind::kChain3;
  } else if (kind == "chain4") {
    spec.kind = core::TopologySpec::Kind::kChain4;
  } else if (kind == "graph") {
    spec.kind = core::TopologySpec::Kind::kGraph;
  } else {
    topology_error("unknown kind '" + kind + "' (expected chain3|chain4|graph)");
  }
  if (spec.kind != core::TopologySpec::Kind::kGraph) {
    if (config.has("topology", "nodes") || config.has("topology", "edges")) {
      topology_error("nodes/edges only apply to kind = graph");
    }
    return spec;
  }
  for (const std::string& field : split(config.get_string("topology", "nodes", ""), ',')) {
    if (trim(field).empty()) topology_error("empty node entry in nodes list");
    spec.nodes.push_back(parse_topology_node(std::string(trim(field))));
  }
  for (const std::string& field : split(config.get_string("topology", "edges", ""), ',')) {
    if (trim(field).empty()) topology_error("empty edge entry in edges list");
    spec.edges.push_back(parse_topology_edge(std::string(trim(field))));
  }
  if (spec.nodes.empty()) topology_error("kind = graph requires a nodes list");
  return spec;
}

// Canonical text spellings, the exact forms topology_spec_from_config
// reads back unchanged: "chain3", "name:role, ...", "a->b:calls[:managed]".
const char* topology_kind_name(core::TopologySpec::Kind kind) {
  switch (kind) {
    case core::TopologySpec::Kind::kChain3:
      return "chain3";
    case core::TopologySpec::Kind::kChain4:
      return "chain4";
    case core::TopologySpec::Kind::kGraph:
      return "graph";
  }
  fail("corrupt topology kind");
}

std::string topology_nodes_to_string(const core::TopologySpec& spec) {
  std::string out;
  for (const auto& node : spec.nodes) {
    if (!out.empty()) out += ", ";
    out += node.name + ":" + node.role;
  }
  return out;
}

std::string topology_edges_to_string(const core::TopologySpec& spec) {
  std::string out;
  for (const auto& edge : spec.edges) {
    if (!out.empty()) out += ", ";
    out += edge.from + "->" + edge.to + ":" +
           (edge.servlet_calls ? std::string("q") : std::to_string(edge.calls));
    if (edge.managed) out += ":managed";
  }
  return out;
}

// A taxonomy pattern name, or else a CSV path.
workload::Trace resolve_trace(const std::string& name, int peak_users, uint64_t seed) {
  for (const auto pattern : workload::all_trace_patterns()) {
    if (name == workload::trace_pattern_name(pattern)) {
      return workload::make_trace(pattern, peak_users, seed);
    }
  }
  return workload::Trace::load_csv(name);
}

WorkloadDecl::Kind parse_workload_kind(const std::string& kind) {
  if (kind == "jmeter") return WorkloadDecl::Kind::kJmeter;
  if (kind == "rubbos") return WorkloadDecl::Kind::kRubbos;
  if (kind == "trace") return WorkloadDecl::Kind::kTrace;
  fail("unknown workload kind '" + kind + "' (expected jmeter|rubbos|trace)");
}

const char* workload_kind_name(WorkloadDecl::Kind kind) {
  switch (kind) {
    case WorkloadDecl::Kind::kJmeter:
      return "jmeter";
    case WorkloadDecl::Kind::kRubbos:
      return "rubbos";
    case WorkloadDecl::Kind::kTrace:
      return "trace";
  }
  fail("corrupt workload kind");
}

// "none" or a controller-registry name.
std::string checked_controller_kind(const std::string& kind) {
  if (kind == "none" || control::has_controller(kind)) return kind;
  std::string expected = "none";
  for (const auto& name : control::controller_names()) expected += "|" + name;
  fail("unknown controller kind '" + kind + "' (expected " + expected + ")");
}

// Calls fn(key, family_config) for each tuning key of the declared zoo
// family; ec2, dcm and none have none. `Decl` is (const) ControllerDecl.
template <class Decl, class Fn>
void for_each_tuning_key(Decl& controller, Fn&& fn) {
  const auto visit = [&](const auto& keys, auto& family) {
    for (const auto& key : keys) fn(key, family);
  };
  if (controller.kind == "predictive") visit(control::kPredictiveTuningKeys, controller.holt);
  if (controller.kind == "queueing") visit(control::kQueueingTuningKeys, controller.queueing);
  if (controller.kind == "pi") visit(control::kPiTuningKeys, controller.pi);
}

// The full vocabulary a scenario may use, conditioned on the declared
// kinds — anything outside this set is a spelling mistake, not a default.
std::map<std::string, std::set<std::string>> allowed_keys(WorkloadDecl::Kind workload,
                                                          const std::string& controller,
                                                          core::TopologySpec::Kind topology,
                                                          bool resilience_enabled,
                                                          bool trace_enabled) {
  std::map<std::string, std::set<std::string>> allowed;
  allowed["scenario"] = {"name", "summary"};
  allowed["hardware"] = {"web", "app", "db"};
  allowed["soft"] = {"web_threads", "app_threads", "db_connections"};
  allowed["run"] = {"duration", "warmup", "max_vms", "seed"};

  std::set<std::string>& topology_keys = allowed["topology"];
  topology_keys.insert("kind");
  if (topology == core::TopologySpec::Kind::kGraph) {
    topology_keys.insert({"nodes", "edges"});
  }
  allowed["faults"] = {"crash_mttf",          "slowdown_mttf",
                       "slowdown_factor",     "slowdown_duration",
                       "telemetry_loss_mttf", "telemetry_loss_duration",
                       "agent_silence_mttf",  "agent_silence_duration"};

  std::set<std::string>& resilience_keys = allowed["resilience"];
  resilience_keys.insert("enabled");
  if (resilience_enabled) {
    resilience_keys.insert({"client_timeout", "client_retries", "client_backoff",
                            "subrequest_timeout", "subrequest_retries", "health_period",
                            "health_failure_threshold", "replace_failed"});
    if (controller == "dcm") {
      resilience_keys.insert({"watchdog_periods", "min_fit_r2"});
    }
  }

  std::set<std::string>& trace_keys = allowed["trace"];
  trace_keys.insert("enabled");
  if (trace_enabled) trace_keys.insert("rate");

  std::set<std::string>& workload_keys = allowed["workload"];
  workload_keys.insert("kind");
  switch (workload) {
    case WorkloadDecl::Kind::kJmeter:
      workload_keys.insert("users");
      break;
    case WorkloadDecl::Kind::kRubbos:
      workload_keys.insert("users");
      workload_keys.insert("think_seconds");
      break;
    case WorkloadDecl::Kind::kTrace:
      workload_keys.insert("think_seconds");
      workload_keys.insert("trace");
      workload_keys.insert("peak_users");
      break;
  }

  std::set<std::string>& controller_keys = allowed["controller"];
  controller_keys.insert("kind");
  if (controller != "none") {
    controller_keys.insert({"control_period", "scale_out_util", "scale_in_util",
                            "scale_in_consecutive", "hysteresis"});
  }
  // The bool predictive trigger and the SLA trigger are ec2/dcm hardware-rule
  // extensions; the zoo kinds have their own trigger shapes.
  if (controller == "ec2" || controller == "dcm") {
    controller_keys.insert({"predictive", "sla_rt"});
  }
  if (controller == "dcm") {
    controller_keys.insert({"headroom", "online_estimation", "app_model", "db_model"});
  }
  ControllerDecl decl;
  decl.kind = controller;
  for_each_tuning_key(decl, [&](const auto& key, const auto&) { controller_keys.insert(key.name); });
  return allowed;
}

void reject_unknown_keys(const Config& config, WorkloadDecl::Kind workload,
                         const std::string& controller, core::TopologySpec::Kind topology,
                         bool resilience_enabled, bool trace_enabled) {
  const auto allowed =
      allowed_keys(workload, controller, topology, resilience_enabled, trace_enabled);
  for (const auto& [section, keys] : config.sections()) {
    const auto entry = allowed.find(section);
    if (entry == allowed.end()) {
      fail("unknown section [" + section + "]");
    }
    for (const auto& [key, value] : keys) {
      if (entry->second.count(key) == 0) {
        fail("unknown key '" + key + "' in [" + section + "] (workload kind " +
             workload_kind_name(workload) + ", controller kind " + controller + ")");
      }
    }
  }
}

// Rejects a value outside its key's domain with an error naming
// [section] key, so a hostile scenario fails here instead of aborting the
// run deep inside the simulator (or silently running as a default). Every
// field is checked, set or not: the defaults all lie inside their domains.
void check_domains(const Scenario& s) {
  // The error text is built only on failure: parsing a valid scenario
  // allocates nothing here.
  const auto reject = [](const char* key, const std::string& domain, const std::string& got) {
    fail(std::string(key) + " must be " + domain + ", got " + got);
  };
  const auto at_least = [&](const char* key, int value, int min) {
    if (value < min) reject(key, ">= " + format_int(min), format_int(value));
  };
  const auto check = [&](bool ok, const char* key, const char* domain, double value) {
    if (!ok) reject(key, domain, format_double(value));
  };
  // Times are capped at 1e9 s (~31 years) so every one converts to SimTime
  // (int64 ns) without overflow; periods must also be at least 1 ns, the
  // smallest nonzero SimTime. NaN fails every comparison.
  const auto seconds = [&](const char* key, double value) {
    check(value >= 0.0 && value <= 1e9, key, "in [0, 1e9]", value);
  };
  const auto period = [&](const char* key, double value) {
    check(value >= 1e-9 && value <= 1e9, key, "in [1e-9, 1e9]", value);
  };

  at_least("[hardware] web", s.hardware.web, 1);
  at_least("[hardware] app", s.hardware.app, 1);
  at_least("[hardware] db", s.hardware.db, 1);
  at_least("[soft] web_threads", s.soft.web_threads, 1);
  at_least("[soft] app_threads", s.soft.app_threads, 1);
  at_least("[soft] db_connections", s.soft.db_connections, 1);

  at_least("[workload] users", s.workload.users, 0);
  period("[workload] think_seconds", s.workload.think_seconds);
  at_least("[workload] peak_users", s.workload.peak_users, 1);
  period("[controller] control_period", s.controller.control_period_seconds);

  seconds("[faults] crash_mttf", s.faults.crash_mttf);
  seconds("[faults] slowdown_mttf", s.faults.slowdown_mttf);
  check(s.faults.slowdown_factor > 0.0 && s.faults.slowdown_factor <= 1.0,
        "[faults] slowdown_factor", "in (0, 1]", s.faults.slowdown_factor);
  seconds("[faults] slowdown_duration", s.faults.slowdown_duration);
  seconds("[faults] telemetry_loss_mttf", s.faults.telemetry_loss_mttf);
  seconds("[faults] telemetry_loss_duration", s.faults.telemetry_loss_duration);
  seconds("[faults] agent_silence_mttf", s.faults.agent_silence_mttf);
  seconds("[faults] agent_silence_duration", s.faults.agent_silence_duration);

  const ResilienceDecl& res = s.resilience;
  seconds("[resilience] client_timeout", res.client_timeout);
  at_least("[resilience] client_retries", res.client_retries, 0);
  seconds("[resilience] client_backoff", res.client_backoff);
  seconds("[resilience] subrequest_timeout", res.subrequest_timeout);
  at_least("[resilience] subrequest_retries", res.subrequest_retries, 0);
  period("[resilience] health_period", res.health_period);
  at_least("[resilience] health_failure_threshold", res.health_failure_threshold, 1);
  at_least("[resilience] watchdog_periods", res.watchdog_periods, 0);
  check(res.min_fit_r2 >= 0.0 && res.min_fit_r2 <= 1.0, "[resilience] min_fit_r2", "in [0, 1]",
        res.min_fit_r2);

  period("[run] duration", s.duration_seconds);
  check(s.warmup_seconds >= 0.0 && s.warmup_seconds < s.duration_seconds, "[run] warmup",
        "in [0, duration)", s.warmup_seconds);
  at_least("[run] max_vms", s.max_vms, 1);
}

}  // namespace

bool scenario_key_applies(const Config& config, const std::string& section,
                          const std::string& key) {
  const auto allowed =
      allowed_keys(parse_workload_kind(config.get_string("workload", "kind", "rubbos")),
                   checked_controller_kind(config.get_string("controller", "kind", "none")),
                   topology_spec_from_config(config).kind,
                   config.get_bool("resilience", "enabled", false),
                   config.get_bool("trace", "enabled", false));
  const auto entry = allowed.find(section);
  return entry != allowed.end() && entry->second.count(key) > 0;
}

Scenario apply_overrides(const Scenario& base, const Overrides& overrides) {
  Config config = base.to_config();
  for (const auto& [path, value] : overrides) {
    const size_t dot = path.find('.');
    if (dot == std::string::npos || dot == 0 || dot + 1 == path.size()) {
      fail("override must be section.key=value, got: " + path);
    }
    config.set(path.substr(0, dot), path.substr(dot + 1), value);
  }

  Config rebuilt;
  for (const auto& [section, keys] : config.sections()) {
    for (const auto& [key, value] : keys) {
      const bool from_override = [&] {
        for (const auto& [path, v] : overrides) {
          if (path == section + "." + key) return true;
        }
        return false;
      }();
      if (from_override || scenario_key_applies(config, section, key)) {
        rebuilt.set(section, key, value);
      }
    }
  }
  return Scenario::from_config(rebuilt);
}

Scenario Scenario::from_config(const Config& config) {
  Scenario scenario;
  scenario.workload.kind =
      parse_workload_kind(config.get_string("workload", "kind", "rubbos"));
  scenario.controller.kind =
      checked_controller_kind(config.get_string("controller", "kind", "none"));
  read(config, "resilience", "enabled", scenario.resilience.enabled);
  read(config, "trace", "enabled", scenario.trace.enabled);
  scenario.topology = topology_spec_from_config(config);
  reject_unknown_keys(config, scenario.workload.kind, scenario.controller.kind,
                      scenario.topology.kind, scenario.resilience.enabled,
                      scenario.trace.enabled);

  read(config, "scenario", "name", scenario.name);
  read(config, "scenario", "summary", scenario.summary);

  read(config, "hardware", "web", scenario.hardware.web);
  read(config, "hardware", "app", scenario.hardware.app);
  read(config, "hardware", "db", scenario.hardware.db);

  read(config, "soft", "web_threads", scenario.soft.web_threads);
  read(config, "soft", "app_threads", scenario.soft.app_threads);
  read(config, "soft", "db_connections", scenario.soft.db_connections);

  read(config, "workload", "users", scenario.workload.users);
  read(config, "workload", "think_seconds", scenario.workload.think_seconds);
  read(config, "workload", "trace", scenario.workload.trace);
  read(config, "workload", "peak_users", scenario.workload.peak_users);

  ControllerDecl& controller = scenario.controller;
  read(config, "controller", "control_period", controller.control_period_seconds);
  read(config, "controller", "scale_out_util", controller.scale_out_util);
  read(config, "controller", "scale_in_util", controller.scale_in_util);
  read(config, "controller", "scale_in_consecutive", controller.scale_in_consecutive);
  read(config, "controller", "hysteresis", controller.hysteresis);
  if (controller.hysteresis < 0.0) fail("[controller] hysteresis must be >= 0");
  read(config, "controller", "predictive", controller.predictive);
  read(config, "controller", "sla_rt", controller.sla_rt);
  read(config, "controller", "headroom", controller.headroom);
  read(config, "controller", "online_estimation", controller.online_estimation);
  if (config.has("controller", "app_model")) {
    controller.app_model =
        normalize_model_triple("app_model", config.get_string("controller", "app_model"));
  }
  if (config.has("controller", "db_model")) {
    controller.db_model =
        normalize_model_triple("db_model", config.get_string("controller", "db_model"));
  }
  for_each_tuning_key(controller, [&](const auto& key, auto& family) {
    if (key.integer != nullptr) {
      read(config, "controller", key.name, family.*key.integer);
    } else {
      read(config, "controller", key.name, family.*key.real);
    }
    if (!key.accepts(key.get(family))) {
      fail(std::string("[controller] ") + key.name + " must be " + key.range_text());
    }
  });

  FaultDecl& faults = scenario.faults;
  read(config, "faults", "crash_mttf", faults.crash_mttf);
  read(config, "faults", "slowdown_mttf", faults.slowdown_mttf);
  read(config, "faults", "slowdown_factor", faults.slowdown_factor);
  read(config, "faults", "slowdown_duration", faults.slowdown_duration);
  read(config, "faults", "telemetry_loss_mttf", faults.telemetry_loss_mttf);
  read(config, "faults", "telemetry_loss_duration", faults.telemetry_loss_duration);
  read(config, "faults", "agent_silence_mttf", faults.agent_silence_mttf);
  read(config, "faults", "agent_silence_duration", faults.agent_silence_duration);

  // Detail keys only parse when they apply (reject_unknown_keys), so the
  // reads below leave the defaults in place otherwise.
  ResilienceDecl& res = scenario.resilience;
  read(config, "resilience", "client_timeout", res.client_timeout);
  read(config, "resilience", "client_retries", res.client_retries);
  read(config, "resilience", "client_backoff", res.client_backoff);
  read(config, "resilience", "subrequest_timeout", res.subrequest_timeout);
  read(config, "resilience", "subrequest_retries", res.subrequest_retries);
  read(config, "resilience", "health_period", res.health_period);
  read(config, "resilience", "health_failure_threshold", res.health_failure_threshold);
  read(config, "resilience", "replace_failed", res.replace_failed);
  read(config, "resilience", "watchdog_periods", res.watchdog_periods);
  read(config, "resilience", "min_fit_r2", res.min_fit_r2);

  read(config, "trace", "rate", scenario.trace.rate);
  if (scenario.trace.rate < 0.0 || scenario.trace.rate > 1.0) {
    fail("[trace] rate must be in [0, 1]");
  }

  read(config, "run", "duration", scenario.duration_seconds);
  read(config, "run", "warmup", scenario.warmup_seconds);
  read(config, "run", "max_vms", scenario.max_vms);
  scenario.seed = static_cast<uint64_t>(config.get_int("run", "seed", 1));

  check_domains(scenario);
  if (scenario.topology.kind == core::TopologySpec::Kind::kGraph) {
    // Eager validation: building the ServiceGraph rejects duplicate names,
    // unknown roles/endpoints, cycles, unreachable nodes and oversized
    // fan-outs here, at parse time.
    core::build_service_graph(scenario.topology, scenario.hardware, scenario.soft,
                              scenario.max_vms);
  }
  return scenario;
}

Scenario Scenario::parse(const std::string& text) {
  return from_config(Config::parse(text));
}

Scenario Scenario::load(const std::string& path) {
  return from_config(Config::load(path));
}

Config Scenario::to_config() const {
  Config config;
  config.set("scenario", "name", name);
  if (!summary.empty()) config.set("scenario", "summary", summary);

  config.set("hardware", "web", format_int(hardware.web));
  config.set("hardware", "app", format_int(hardware.app));
  config.set("hardware", "db", format_int(hardware.db));

  config.set("soft", "web_threads", format_int(soft.web_threads));
  config.set("soft", "app_threads", format_int(soft.app_threads));
  config.set("soft", "db_connections", format_int(soft.db_connections));

  // chain3 is canonical as an absent [topology] section.
  if (topology.kind != core::TopologySpec::Kind::kChain3) {
    config.set("topology", "kind", topology_kind_name(topology.kind));
    if (topology.kind == core::TopologySpec::Kind::kGraph) {
      config.set("topology", "nodes", topology_nodes_to_string(topology));
      config.set("topology", "edges", topology_edges_to_string(topology));
    }
  }

  config.set("workload", "kind", workload_kind_name(workload.kind));
  switch (workload.kind) {
    case WorkloadDecl::Kind::kJmeter:
      config.set("workload", "users", format_int(workload.users));
      break;
    case WorkloadDecl::Kind::kRubbos:
      config.set("workload", "users", format_int(workload.users));
      config.set("workload", "think_seconds", format_double(workload.think_seconds));
      break;
    case WorkloadDecl::Kind::kTrace:
      config.set("workload", "trace", workload.trace);
      config.set("workload", "peak_users", format_int(workload.peak_users));
      config.set("workload", "think_seconds", format_double(workload.think_seconds));
      break;
  }

  config.set("controller", "kind", controller.kind);
  if (controller.kind != "none") {
    config.set("controller", "control_period", format_double(controller.control_period_seconds));
    config.set("controller", "scale_out_util", format_double(controller.scale_out_util));
    config.set("controller", "scale_in_util", format_double(controller.scale_in_util));
    config.set("controller", "scale_in_consecutive",
               format_int(controller.scale_in_consecutive));
    config.set("controller", "hysteresis", format_double(controller.hysteresis));
  }
  if (controller.kind == "ec2" || controller.kind == "dcm") {
    config.set("controller", "predictive", controller.predictive ? "true" : "false");
    config.set("controller", "sla_rt", format_double(controller.sla_rt));
  }
  for_each_tuning_key(controller, [&](const auto& key, const auto& family) {
    config.set("controller", key.name,
               key.integer != nullptr ? format_int(family.*key.integer)
                                      : format_double(family.*key.real));
  });
  if (controller.kind == "dcm") {
    config.set("controller", "headroom", format_double(controller.headroom));
    config.set("controller", "online_estimation",
               controller.online_estimation ? "true" : "false");
    if (!controller.app_model.empty()) {
      config.set("controller", "app_model", controller.app_model);
    }
    if (!controller.db_model.empty()) {
      config.set("controller", "db_model", controller.db_model);
    }
  }

  config.set("faults", "crash_mttf", format_double(faults.crash_mttf));
  config.set("faults", "slowdown_mttf", format_double(faults.slowdown_mttf));
  config.set("faults", "slowdown_factor", format_double(faults.slowdown_factor));
  config.set("faults", "slowdown_duration", format_double(faults.slowdown_duration));
  config.set("faults", "telemetry_loss_mttf", format_double(faults.telemetry_loss_mttf));
  config.set("faults", "telemetry_loss_duration",
             format_double(faults.telemetry_loss_duration));
  config.set("faults", "agent_silence_mttf", format_double(faults.agent_silence_mttf));
  config.set("faults", "agent_silence_duration",
             format_double(faults.agent_silence_duration));

  config.set("resilience", "enabled", resilience.enabled ? "true" : "false");
  if (resilience.enabled) {
    config.set("resilience", "client_timeout", format_double(resilience.client_timeout));
    config.set("resilience", "client_retries", format_int(resilience.client_retries));
    config.set("resilience", "client_backoff", format_double(resilience.client_backoff));
    config.set("resilience", "subrequest_timeout",
               format_double(resilience.subrequest_timeout));
    config.set("resilience", "subrequest_retries", format_int(resilience.subrequest_retries));
    config.set("resilience", "health_period", format_double(resilience.health_period));
    config.set("resilience", "health_failure_threshold",
               format_int(resilience.health_failure_threshold));
    config.set("resilience", "replace_failed", resilience.replace_failed ? "true" : "false");
    if (controller.kind == "dcm") {
      config.set("resilience", "watchdog_periods", format_int(resilience.watchdog_periods));
      config.set("resilience", "min_fit_r2", format_double(resilience.min_fit_r2));
    }
  }

  if (trace.enabled) {
    config.set("trace", "enabled", "true");
    config.set("trace", "rate", format_double(trace.rate));
  }

  config.set("run", "duration", format_double(duration_seconds));
  config.set("run", "warmup", format_double(warmup_seconds));
  config.set("run", "max_vms", format_int(max_vms));
  config.set("run", "seed", format_int(static_cast<int64_t>(seed)));
  return config;
}

std::string Scenario::to_text() const { return to_config().to_text(); }

core::ExperimentConfig Scenario::experiment() const {
  core::ExperimentConfig experiment;
  experiment.hardware = hardware;
  experiment.soft = soft;
  experiment.topology = topology;
  experiment.duration_seconds = duration_seconds;
  experiment.warmup_seconds = warmup_seconds;
  experiment.max_vms_per_tier = max_vms;
  experiment.seed = seed;

  switch (workload.kind) {
    case WorkloadDecl::Kind::kJmeter:
      experiment.workload = core::WorkloadSpec::jmeter(workload.users);
      break;
    case WorkloadDecl::Kind::kRubbos:
      experiment.workload = core::WorkloadSpec::rubbos(workload.users, workload.think_seconds);
      break;
    case WorkloadDecl::Kind::kTrace:
      experiment.workload = core::WorkloadSpec::trace_driven(
          resolve_trace(workload.trace, workload.peak_users,
                        core::experiment_stream_seed(seed, core::SeedStream::kTrace)),
          workload.think_seconds);
      break;
  }

  fault::FaultSpec& fault_spec = experiment.faults;
  fault_spec.crash_mttf_seconds = faults.crash_mttf;
  fault_spec.slowdown_mttf_seconds = faults.slowdown_mttf;
  fault_spec.slowdown_factor = faults.slowdown_factor;
  fault_spec.slowdown_duration_seconds = faults.slowdown_duration;
  fault_spec.telemetry_loss_mttf_seconds = faults.telemetry_loss_mttf;
  fault_spec.telemetry_loss_duration_seconds = faults.telemetry_loss_duration;
  fault_spec.agent_silence_mttf_seconds = faults.agent_silence_mttf;
  fault_spec.agent_silence_duration_seconds = faults.agent_silence_duration;

  if (resilience.enabled) {
    core::ResilienceSpec& spec = experiment.resilience;
    spec.enabled = true;
    spec.client_timeout_seconds = resilience.client_timeout;
    spec.client_retries = resilience.client_retries;
    spec.client_backoff_seconds = resilience.client_backoff;
    spec.subrequest_timeout_seconds = resilience.subrequest_timeout;
    spec.subrequest_retries = resilience.subrequest_retries;
    spec.health_period_seconds = resilience.health_period;
    spec.health_failure_threshold = resilience.health_failure_threshold;
    spec.replace_failed = resilience.replace_failed;
    spec.watchdog_periods = resilience.watchdog_periods;
    spec.min_fit_r2 = resilience.min_fit_r2;
  }

  if (trace.enabled) {
    experiment.trace.enabled = true;
    experiment.trace.rate = trace.rate;
  }

  if (controller.kind == "none") return experiment;
  core::ControllerSpec& spec = experiment.controller;
  spec.name = checked_controller_kind(controller.kind);
  spec.policy.control_period = sim::from_seconds(controller.control_period_seconds);
  spec.policy.scale_out_util = controller.scale_out_util;
  spec.policy.scale_in_util = controller.scale_in_util;
  spec.policy.scale_in_consecutive = controller.scale_in_consecutive;
  spec.policy.hysteresis = controller.hysteresis;
  if (controller.kind == "ec2" || controller.kind == "dcm") {
    spec.policy.predictive = controller.predictive;
    spec.policy.scale_out_response_time = controller.sla_rt;
  }
  if (controller.kind == "dcm") {
    spec.dcm.app_tier_model = core::tomcat_reference_model();
    spec.dcm.db_tier_model = core::mysql_reference_model();
    if (!controller.app_model.empty()) {
      spec.dcm.app_tier_model.params = parse_model_triple("app_model", controller.app_model);
    }
    if (!controller.db_model.empty()) {
      spec.dcm.db_tier_model.params = parse_model_triple("db_model", controller.db_model);
    }
    spec.dcm.stp_headroom = controller.headroom;
    spec.dcm.online_estimation = controller.online_estimation;
  }
  spec.predictive = controller.holt;
  spec.queueing = controller.queueing;
  spec.pi = controller.pi;
  return experiment;
}

}  // namespace dcm::scenario
