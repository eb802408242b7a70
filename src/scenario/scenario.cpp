#include "scenario/scenario.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/key_row.h"
#include "common/strings.h"
#include "workload/trace_taxonomy.h"

namespace dcm::scenario {
namespace {

using Row = KeyRow<Scenario>;
using Spec = control::ControllerSpec;
using TopologyKind = core::TopologySpec::Kind;

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error("scenario: " + message);
}

std::string label(const Row& row) { return std::string("[") + row.section + "] " + row.name; }

[[noreturn]] void reject(const Row& row, const std::string& domain, const std::string& got) {
  fail(label(row) + " must be " + domain + ", got " + got);
}

// ---- Structured values: their own parse/format helpers, reached through
// their rows. Parse errors are std::invalid_argument carrying the reason;
// the row loop prefixes [section] key.

[[noreturn]] void malformed(const std::string& reason) { throw std::invalid_argument(reason); }

// An "s0,alpha,beta" Eq. 5 triple: three finite numbers with valid()
// parameters.
model::ServiceTimeParams parse_model_triple(const std::string& text) {
  const std::vector<std::string> parts = split(text, ',');
  double values[3] = {};
  bool ok = parts.size() == 3;
  for (size_t i = 0; ok && i < 3; ++i) {
    const auto parsed = parse_double(parts[i]);
    ok = parsed && std::isfinite(*parsed);
    if (ok) values[i] = *parsed;
  }
  const model::ServiceTimeParams params{values[0], values[1], values[2]};
  if (!ok || !params.valid()) {
    malformed("must be 's0,alpha,beta' with finite s0 > 0, alpha >= 0, beta >= 0, got " + text);
  }
  return params;
}

// The canonical spelling: each number in format_double's shortest form.
std::string model_triple_text(const model::ServiceTimeParams& p) {
  return format_double(p.s0) + "," + format_double(p.alpha) + "," + format_double(p.beta);
}

// "name:role".
core::TopologySpec::Node parse_topology_node(const std::string& text) {
  const std::vector<std::string> parts = split(text, ':');
  core::TopologySpec::Node node;
  if (parts.size() == 2) {
    node.name = std::string(trim(parts[0]));
    node.role = std::string(trim(parts[1]));
  }
  if (node.name.empty() || node.role.empty()) {
    malformed("entry '" + text + "' must be 'name:role'");
  }
  return node;
}

// "from->to[:calls][:managed]"; calls is a non-negative integer or 'q'.
core::TopologySpec::Edge parse_topology_edge(const std::string& text) {
  const std::vector<std::string> parts = split(text, ':');
  if (parts.size() > 3) malformed("entry '" + text + "' must be 'from->to:calls[:managed]'");
  core::TopologySpec::Edge edge;
  const size_t arrow = parts[0].find("->");
  if (arrow == std::string::npos) malformed("entry '" + text + "' is missing '->'");
  edge.from = std::string(trim(std::string_view(parts[0]).substr(0, arrow)));
  edge.to = std::string(trim(std::string_view(parts[0]).substr(arrow + 2)));
  if (edge.from.empty() || edge.to.empty()) {
    malformed("entry '" + text + "' must name both endpoints");
  }
  if (parts.size() >= 2) {
    const std::string calls(trim(parts[1]));
    if (calls == "q") {
      edge.servlet_calls = true;
    } else {
      const auto parsed = parse_int(calls);
      if (!parsed || *parsed < 0 || *parsed > INT_MAX) {
        malformed("entry '" + text + "' calls must be a non-negative int or 'q'");
      }
      edge.calls = static_cast<int>(*parsed);
    }
  }
  if (parts.size() == 3) {
    if (trim(parts[2]) != "managed") {
      malformed("entry '" + text + "' trailing field must be 'managed'");
    }
    edge.managed = true;
  }
  return edge;
}

// Enumerated kinds: the canonical names, in declaration order.
constexpr const char* kTopologyKinds[] = {"chain3", "chain4", "graph"};
constexpr const char* kWorkloadKinds[] = {"jmeter", "rubbos", "trace"};

template <class Kind, size_t N>
Kind parse_kind(const char* const (&names)[N], const std::string& text) {
  std::string expected;
  for (size_t i = 0; i < N; ++i) {
    if (text == names[i]) return static_cast<Kind>(i);
    expected += (i == 0 ? "" : "|") + std::string(names[i]);
  }
  malformed("must be " + expected + ", got '" + text + "'");
}

void read_topology_kind(Scenario& s, const std::string& text) {
  s.topology.kind = parse_kind<TopologyKind>(kTopologyKinds, text);
}

std::string topology_kind_text(const Scenario& s) {
  return kTopologyKinds[static_cast<int>(s.topology.kind)];
}

void read_workload_kind(Scenario& s, const std::string& text) {
  s.workload.kind = parse_kind<WorkloadDecl::Kind>(kWorkloadKinds, text);
}

std::string workload_kind_text(const Scenario& s) {
  return kWorkloadKinds[static_cast<int>(s.workload.kind)];
}

// "none" or a controller-registry name.
void read_controller_kind(Scenario& s, const std::string& text) {
  if (text != "none" && !control::has_controller(text)) {
    std::string expected = "none";
    for (const auto& name : control::controller_names()) expected += "|" + name;
    malformed("must be " + expected + ", got '" + text + "'");
  }
  s.controller.name = text;
}

// Topology lists, canonical as "name:role, ..." and
// "a->b:calls[:managed], ...": the exact forms the parsers read back.
template <class Parse>
auto parse_list(const std::string& text, Parse parse) {
  std::vector<decltype(parse(std::string()))> out;
  for (const std::string& entry : split(text, ',')) out.push_back(parse(std::string(trim(entry))));
  return out;
}

void read_topology_nodes(Scenario& s, const std::string& text) {
  s.topology.nodes = parse_list(text, parse_topology_node);
}

void read_topology_edges(Scenario& s, const std::string& text) {
  s.topology.edges = parse_list(text, parse_topology_edge);
}

std::string topology_nodes_text(const Scenario& s) {
  std::string out;
  for (const auto& node : s.topology.nodes) {
    if (!out.empty()) out += ", ";
    out += node.name + ":" + node.role;
  }
  return out;
}

std::string topology_edges_text(const Scenario& s) {
  std::string out;
  for (const auto& edge : s.topology.edges) {
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

// ---- Gates: when a row applies. Each reads only ungated rows.

bool any_controller(const Scenario& s) { return s.controller.enabled(); }
// The SLA trigger is an ec2/dcm threshold-rule extension; the zoo kinds have
// their own trigger shapes.
bool threshold_rule(const Scenario& s) {
  return s.controller.name == "ec2" || s.controller.name == "dcm";
}
bool dcm_only(const Scenario& s) { return s.controller.name == "dcm"; }
bool graph_only(const Scenario& s) { return s.topology.kind == TopologyKind::kGraph; }
bool closed_loop(const Scenario& s) { return s.workload.kind != WorkloadDecl::Kind::kTrace; }
bool has_think_time(const Scenario& s) { return s.workload.kind != WorkloadDecl::Kind::kJmeter; }
bool trace_driven(const Scenario& s) { return s.workload.kind == WorkloadDecl::Kind::kTrace; }
bool resilient(const Scenario& s) { return s.resilience.enabled; }
bool resilient_dcm(const Scenario& s) { return s.resilience.enabled && dcm_only(s); }
bool traced(const Scenario& s) { return s.trace.enabled; }

// ---- Domains. Times are capped at 1e9 s (~31 years) so every one converts
// to SimTime (int64 ns) without overflow; periods must also be at least
// 1 ns, the smallest nonzero SimTime.

constexpr KeyDomain kAtLeastOne{.min = 1.0};
constexpr KeyDomain kNonNegative{.min = 0.0};
constexpr KeyDomain kUnit{.min = 0.0, .max = 1.0};
constexpr KeyDomain kSeconds{.min = 0.0, .max = 1e9};
constexpr KeyDomain kPeriod{.min = 1e-9, .max = 1e9};

// [controller] fields: the shared policy's and DcmConfig's.
template <auto Field>
FieldRef policy_field(Scenario& s) {
  return &(s.controller.policy.*Field);
}

template <auto Field>
FieldRef dcm_field(Scenario& s) {
  return &(s.controller.dcm.*Field);
}

// DCM's Eq. 5 models: "s0,alpha,beta" rows over each model's params, left
// out while they equal the default model.
template <model::ConcurrencyModel control::DcmConfig::*Model>
constexpr Row model_row(const char* name) {
  return {
      .section = "controller",
      .name = name,
      .applies = dcm_only,
      .omitted = [](const Scenario& s) {
        return (s.controller.dcm.*Model).params == (default_controller().dcm.*Model).params;
      },
      .parse = [](Scenario& s, const std::string& text) {
        (s.controller.dcm.*Model).params = parse_model_triple(text);
      },
      .format = [](const Scenario& s) {
        return model_triple_text((s.controller.dcm.*Model).params);
      },
  };
}

// The scenario vocabulary, one row per key. Ungated rows (applies ==
// nullptr) include every kind and gate, and are read first.
constexpr Row kScenarioRows[] = {
    {"scenario", "name", field_of<&Scenario::name>},
    {.section = "scenario",
     .name = "summary",
     .field = field_of<&Scenario::summary>,
     .omitted = [](const Scenario& s) { return s.summary.empty(); }},

    {"hardware", "web", field_of<&Scenario::hardware, &core::HardwareConfig::web>, kAtLeastOne},
    {"hardware", "app", field_of<&Scenario::hardware, &core::HardwareConfig::app>, kAtLeastOne},
    {"hardware", "db", field_of<&Scenario::hardware, &core::HardwareConfig::db>, kAtLeastOne},

    {"soft", "web_threads", field_of<&Scenario::soft, &core::SoftAllocation::web_threads>,
     kAtLeastOne},
    {"soft", "app_threads", field_of<&Scenario::soft, &core::SoftAllocation::app_threads>,
     kAtLeastOne},
    {"soft", "db_connections", field_of<&Scenario::soft, &core::SoftAllocation::db_connections>,
     kAtLeastOne},

    // chain3 is canonical as an absent [topology] section.
    {.section = "topology",
     .name = "kind",
     .omitted = [](const Scenario& s) { return s.topology.kind == TopologyKind::kChain3; },
     .parse = read_topology_kind,
     .format = topology_kind_text},
    {.section = "topology",
     .name = "nodes",
     .applies = graph_only,
     .relation = [](const Scenario& s) -> const char* {
       return s.topology.nodes.empty() ? "a non-empty 'name:role, ...' list" : nullptr;
     },
     .parse = read_topology_nodes,
     .format = topology_nodes_text},
    {.section = "topology",
     .name = "edges",
     .applies = graph_only,
     .relation = [](const Scenario& s) -> const char* {
       return s.topology.edges.empty() ? "a non-empty 'from->to:calls[:managed], ...' list"
                                       : nullptr;
     },
     .parse = read_topology_edges,
     .format = topology_edges_text},

    {.section = "workload",
     .name = "kind",
     .parse = read_workload_kind,
     .format = workload_kind_text},
    {"workload", "users", field_of<&Scenario::workload, &WorkloadDecl::users>, kNonNegative,
     closed_loop},
    {"workload", "think_seconds", field_of<&Scenario::workload, &WorkloadDecl::think_seconds>,
     kPeriod, has_think_time},
    {"workload", "trace", field_of<&Scenario::workload, &WorkloadDecl::trace>, {}, trace_driven},
    {"workload", "peak_users", field_of<&Scenario::workload, &WorkloadDecl::peak_users>,
     kAtLeastOne, trace_driven},

    {.section = "controller",
     .name = "kind",
     .parse = read_controller_kind,
     .format = [](const Scenario& s) { return s.controller.name; }},
    {"controller", "control_period",
     policy_field<&control::ScalingPolicy::control_period_seconds>, kPeriod, any_controller},
    {"controller", "scale_out_util", policy_field<&control::ScalingPolicy::scale_out_util>, kUnit,
     any_controller},
    {"controller", "scale_in_util", policy_field<&control::ScalingPolicy::scale_in_util>, kUnit,
     any_controller,
     [](const Scenario& s) -> const char* {
       return s.controller.policy.scale_in_util < s.controller.policy.scale_out_util
                  ? nullptr
                  : "in [0, scale_out_util)";
     }},
    {"controller", "scale_in_consecutive",
     policy_field<&control::ScalingPolicy::scale_in_consecutive>, kAtLeastOne, any_controller},
    {"controller", "hysteresis", policy_field<&control::ScalingPolicy::hysteresis>, kNonNegative,
     any_controller},
    {"controller", "sla_rt", policy_field<&control::ScalingPolicy::scale_out_response_time>,
     kNonNegative, threshold_rule},
    // The STP pool is headroom·N_b, never below the model optimum.
    {"controller", "headroom", dcm_field<&control::DcmConfig::stp_headroom>, kAtLeastOne,
     dcm_only},
    {"controller", "online_estimation", dcm_field<&control::DcmConfig::online_estimation>, {},
     dcm_only},
    model_row<&control::DcmConfig::app_tier_model>("app_model"),
    model_row<&control::DcmConfig::db_tier_model>("db_model"),

    {"faults", "crash_mttf", field_of<&Scenario::faults, &fault::FaultSpec::crash_mttf_seconds>,
     kSeconds},
    {"faults", "slowdown_mttf",
     field_of<&Scenario::faults, &fault::FaultSpec::slowdown_mttf_seconds>, kSeconds},
    {"faults", "slowdown_factor", field_of<&Scenario::faults, &fault::FaultSpec::slowdown_factor>,
     {.min = 0.0, .max = 1.0, .min_open = true}},
    {"faults", "slowdown_duration",
     field_of<&Scenario::faults, &fault::FaultSpec::slowdown_duration_seconds>, kSeconds},
    {"faults", "telemetry_loss_mttf",
     field_of<&Scenario::faults, &fault::FaultSpec::telemetry_loss_mttf_seconds>, kSeconds},
    {"faults", "telemetry_loss_duration",
     field_of<&Scenario::faults, &fault::FaultSpec::telemetry_loss_duration_seconds>, kSeconds},
    {"faults", "agent_silence_mttf",
     field_of<&Scenario::faults, &fault::FaultSpec::agent_silence_mttf_seconds>, kSeconds},
    {"faults", "agent_silence_duration",
     field_of<&Scenario::faults, &fault::FaultSpec::agent_silence_duration_seconds>, kSeconds},

    {"resilience", "enabled", field_of<&Scenario::resilience, &core::ResilienceSpec::enabled>},
    {"resilience", "client_timeout",
     field_of<&Scenario::resilience, &core::ResilienceSpec::client_timeout_seconds>, kSeconds,
     resilient},
    {"resilience", "client_retries",
     field_of<&Scenario::resilience, &core::ResilienceSpec::client_retries>, kNonNegative,
     resilient},
    {"resilience", "client_backoff",
     field_of<&Scenario::resilience, &core::ResilienceSpec::client_backoff_seconds>, kSeconds,
     resilient},
    {"resilience", "subrequest_timeout",
     field_of<&Scenario::resilience, &core::ResilienceSpec::subrequest_timeout_seconds>,
     kSeconds, resilient},
    {"resilience", "subrequest_retries",
     field_of<&Scenario::resilience, &core::ResilienceSpec::subrequest_retries>, kNonNegative,
     resilient},
    {"resilience", "health_period",
     field_of<&Scenario::resilience, &core::ResilienceSpec::health_period_seconds>, kPeriod,
     resilient},
    {"resilience", "health_failure_threshold",
     field_of<&Scenario::resilience, &core::ResilienceSpec::health_failure_threshold>,
     kAtLeastOne, resilient},
    {"resilience", "replace_failed",
     field_of<&Scenario::resilience, &core::ResilienceSpec::replace_failed>, {}, resilient},
    {"resilience", "watchdog_periods",
     field_of<&Scenario::resilience, &core::ResilienceSpec::watchdog_periods>, kNonNegative,
     resilient_dcm},
    {"resilience", "min_fit_r2", field_of<&Scenario::resilience, &core::ResilienceSpec::min_fit_r2>,
     kUnit, resilient_dcm},

    {.section = "trace",
     .name = "enabled",
     .field = field_of<&Scenario::trace, &trace::TraceSpec::enabled>,
     .omitted = [](const Scenario& s) { return !s.trace.enabled; }},
    {"trace", "rate", field_of<&Scenario::trace, &trace::TraceSpec::rate>, kUnit, traced},

    {"run", "duration", field_of<&Scenario::duration_seconds>, kPeriod},
    {"run", "warmup", field_of<&Scenario::warmup_seconds>, kSeconds, nullptr,
     [](const Scenario& s) -> const char* {
       return s.warmup_seconds < s.duration_seconds ? nullptr : "in [0, duration)";
     }},
    {"run", "max_vms", field_of<&Scenario::max_vms>, kAtLeastOne},
    {"run", "seed", field_of<&Scenario::seed>},
};

// A zoo family's tuning rows, owned by its header, filed under [controller]
// and applying while controller.kind names the family.
template <auto Family, const auto& Rows, size_t I>
FieldRef family_field(Scenario& s) {
  return Rows[I].field(s.controller.*Family);
}

template <auto Family, const auto& Rows, size_t... I>
void add_family(std::vector<Row>& rows, bool (*applies)(const Scenario&),
                std::index_sequence<I...>) {
  (rows.push_back({"controller", Rows[I].name, family_field<Family, Rows, I>, Rows[I].domain,
                   applies}),
   ...);
}

template <auto Family, const auto& Rows>
void add_family(std::vector<Row>& rows, bool (*applies)(const Scenario&)) {
  add_family<Family, Rows>(rows, applies, std::make_index_sequence<std::size(Rows)>());
}

const std::vector<Row>& rows() {
  static const std::vector<Row> kRows = [] {
    std::vector<Row> all(std::begin(kScenarioRows), std::end(kScenarioRows));
    add_family<&Spec::predictive, control::kPredictiveTuningKeys>(
        all, [](const Scenario& s) { return s.controller.name == "predictive"; });
    add_family<&Spec::queueing, control::kQueueingTuningKeys>(
        all, [](const Scenario& s) { return s.controller.name == "queueing"; });
    add_family<&Spec::pi, control::kPiTuningKeys>(
        all, [](const Scenario& s) { return s.controller.name == "pi"; });
    return all;
  }();
  return kRows;
}

// ---- The loops over the table.

bool applies(const Row& row, const Scenario& s) {
  return row.applies == nullptr || row.applies(s);
}

// The row of [section] key that applies under the gates of `s`, if any.
// Zoo families may share a key name (target_util): their gates are disjoint.
const Row* applicable_row(const std::string& section, const std::string& key,
                          const Scenario& s) {
  for (const Row& row : rows()) {
    if (section == row.section && key == row.name && applies(row, s)) return &row;
  }
  return nullptr;
}

template <class T>
T checked(const Row& row, const KeyDomain& domain, T value) {
  if (!domain.accepts(static_cast<double>(value))) {
    if constexpr (std::is_floating_point_v<T>) {
      reject(row, domain.text(), format_double(value));
    } else {
      reject(row, domain.text(), std::to_string(value));
    }
  }
  return value;
}

// Reads the key's text, if present, into its field; a value outside the
// row's domain throws naming [section] key.
void read(const Row& row, const Config& config, Scenario& s) {
  if (!config.has(row.section, row.name)) return;
  const std::string text = config.get_string(row.section, row.name);
  if (row.parse != nullptr) {
    try {
      row.parse(s, text);
    } catch (const std::invalid_argument& e) {
      fail(label(row) + " " + e.what());
    }
    return;
  }
  std::visit(
      [&](auto* field) {
        using T = std::remove_pointer_t<decltype(field)>;
        if constexpr (std::is_same_v<T, double>) {
          *field = checked(row, row.domain, config.get_double(row.section, row.name, *field));
        } else if constexpr (std::is_same_v<T, int>) {
          KeyDomain domain = row.domain;
          domain.min = std::max(domain.min, static_cast<double>(INT_MIN));
          domain.max = std::min(domain.max, static_cast<double>(INT_MAX));
          *field = static_cast<int>(
              checked(row, domain, config.get_int(row.section, row.name, *field)));
        } else if constexpr (std::is_same_v<T, bool>) {
          *field = config.get_bool(row.section, row.name, *field);
        } else if constexpr (std::is_same_v<T, uint64_t>) {
          const auto parsed = parse_uint(text);
          if (!parsed) reject(row, "an integer in [0, " + std::to_string(UINT64_MAX) + "]", text);
          *field = *parsed;
        } else {
          *field = text;
        }
      },
      row.field(s));
}

std::string format(const Row& row, const Scenario& s) {
  if (row.format != nullptr) return row.format(s);
  // field() only forms a pointer into `s`; formatting reads through it.
  return std::visit(
      [](const auto* field) -> std::string {
        using T = std::remove_cv_t<std::remove_pointer_t<decltype(field)>>;
        if constexpr (std::is_same_v<T, double>) {
          return format_double(*field);
        } else if constexpr (std::is_same_v<T, bool>) {
          return *field ? "true" : "false";
        } else if constexpr (std::is_same_v<T, std::string>) {
          return *field;
        } else {
          return std::to_string(*field);  // int, uint64_t
        }
      },
      row.field(const_cast<Scenario&>(s)));
}

// The ungated rows: every kind and gate the other rows' predicates read.
Scenario read_gates(const Config& config) {
  Scenario s;
  for (const Row& row : rows()) {
    if (row.applies == nullptr) read(row, config, s);
  }
  return s;
}

void reject_unknown_keys(const Config& config, const Scenario& s) {
  for (const auto& [section, keys] : config.sections()) {
    bool known = false;
    for (const Row& row : rows()) known = known || section == row.section;
    if (!known) fail("unknown section [" + section + "]");
    for (const auto& [key, value] : keys) {
      if (applicable_row(section, key, s) == nullptr) {
        fail("unknown key [" + section + "] " + key + " (workload kind " +
             workload_kind_text(s) + ", controller kind " + s.controller.name + ")");
      }
    }
  }
}

}  // namespace

bool scenario_key_applies(const Config& config, const std::string& section,
                          const std::string& key) {
  return applicable_row(section, key, read_gates(config)) != nullptr;
}

Scenario apply_overrides(const Scenario& base, const Overrides& overrides) {
  Config config = base.to_config();
  std::set<std::pair<std::string, std::string>> overridden;
  for (const auto& [path, value] : overrides) {
    const size_t dot = path.find('.');
    if (dot == std::string::npos || dot == 0 || dot + 1 == path.size()) {
      fail("override must be section.key=value, got: " + path);
    }
    overridden.emplace(path.substr(0, dot), path.substr(dot + 1));
    config.set(path.substr(0, dot), path.substr(dot + 1), value);
  }

  // Keys the base emitted are kept only while they apply under the
  // overridden gates; an overridden key is always kept, so a typo'd or
  // inapplicable override still throws.
  const Scenario gates = read_gates(config);
  Config kept;
  for (const auto& [section, keys] : config.sections()) {
    for (const auto& [key, value] : keys) {
      if (overridden.count({section, key}) > 0 || applicable_row(section, key, gates) != nullptr) {
        kept.set(section, key, value);
      }
    }
  }
  return Scenario::from_config(kept);
}

Scenario Scenario::from_config(const Config& config) {
  Scenario scenario = read_gates(config);
  reject_unknown_keys(config, scenario);
  for (const Row& row : rows()) {
    if (row.applies != nullptr && row.applies(scenario)) read(row, config, scenario);
  }
  for (const Row& row : rows()) {
    if (row.relation == nullptr || !applies(row, scenario)) continue;
    if (const char* domain = row.relation(scenario)) reject(row, domain, format(row, scenario));
  }
  if (scenario.topology.kind == TopologyKind::kGraph) {
    // Eager validation: building the ServiceGraph rejects duplicate names,
    // unknown roles/endpoints, cycles, unreachable nodes and oversized
    // fan-outs here, at parse time. The chains always hold DCM's pair.
    const ntier::ServiceGraph graph = core::build_service_graph(
        scenario.topology, scenario.hardware, scenario.soft, scenario.max_vms);
    if (dcm_only(scenario) && !control::DcmController::managed_pair(graph)) {
      fail("[controller] kind must be other than dcm when [topology] has no app node upstream "
           "of a db node, got dcm");
    }
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
  for (const Row& row : rows()) {
    if (!applies(row, *this) || (row.omitted != nullptr && row.omitted(*this))) continue;
    config.set(row.section, row.name, format(row, *this));
  }
  return config;
}

std::string Scenario::to_text() const { return to_config().to_text(); }

const control::ControllerSpec& default_controller() {
  static const control::ControllerSpec kDefault = [] {
    control::ControllerSpec spec;
    spec.dcm.app_tier_model = core::tomcat_reference_model();
    spec.dcm.db_tier_model = core::mysql_reference_model();
    return spec;
  }();
  return kDefault;
}

core::ExperimentConfig Scenario::experiment() const {
  core::ExperimentConfig experiment;
  experiment.hardware = hardware;
  experiment.soft = soft;
  experiment.topology = topology;
  experiment.controller = controller;
  experiment.faults = faults;
  experiment.resilience = resilience;
  experiment.trace = trace;
  experiment.duration_seconds = duration_seconds;
  experiment.warmup_seconds = warmup_seconds;
  experiment.max_vms_per_tier = max_vms;
  experiment.seed = seed;
  if (controller.enabled() && !control::has_controller(controller.name)) {
    fail("unknown controller kind '" + controller.name + "'");
  }

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

  return experiment;
}

}  // namespace dcm::scenario
