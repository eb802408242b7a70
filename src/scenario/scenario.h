// Declarative, serializable experiment scenarios.
//
// A `Scenario` is the text-form twin of `core::ExperimentConfig`: hardware,
// soft allocation, workload, controller, run window and the single root
// seed, plus a name and a one-line summary. It round-trips losslessly
// through the INI dialect (`parse` → `to_text` → `parse` is identity, and
// `to_text` is a canonical fixed point), and `experiment()` translates its
// typed fields straight into a runnable `ExperimentConfig`, so the CLI, the
// registry, and hand-written INI files all take exactly one path into the
// simulator.
//
// The vocabulary is one table of `KeyRow<Scenario>` rows (scenario.cpp):
// each `[section] key` is named once, with the field it reads and writes,
// the kinds and gates under which it applies, its domain and its canonical
// spelling. Parsing, the unknown-key check, `scenario_key_applies`, domain
// checks, canonical emission and `apply_overrides` are loops over that
// table; the zoo families' tuning rows (`control::k*TuningKeys`) join it
// under [controller]. [controller], [faults], [resilience] and [trace] read
// and write the runnable `control::ControllerSpec`, `fault::FaultSpec`,
// `core::ResilienceSpec` and `trace::TraceSpec` directly.
//
// Parsing is strict: unknown sections or keys (and keys that don't apply to
// the declared kinds and gates) are errors, so a typo like `contorller`
// cannot silently fall back to defaults, and a value outside its key's
// domain fails naming `[section] key` instead of aborting the run.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "control/controller_registry.h"
#include "core/experiment.h"
#include "core/topologies.h"

namespace dcm::scenario {

/// Declarative workload: trace workloads are referenced by taxonomy pattern
/// name or CSV path (never by inline user vectors), which is what keeps the
/// spec serializable.
struct WorkloadDecl {
  enum class Kind { kJmeter, kRubbos, kTrace };
  Kind kind = Kind::kRubbos;
  int users = 100;                // kJmeter / kRubbos
  double think_seconds = 3.0;     // kRubbos / kTrace
  std::string trace = "large-variation";  // kTrace: taxonomy name or CSV path
  int peak_users = 350;           // kTrace, taxonomy patterns only

  bool operator==(const WorkloadDecl&) const = default;
};

/// The scenario's controller defaults: the control layer's own, with DCM
/// driven by the Table I reference models (core::tomcat_reference_model and
/// core::mysql_reference_model), which `[controller] app_model` / `db_model`
/// override with explicit "s0,alpha,beta" triples.
const control::ControllerSpec& default_controller();

struct Scenario {
  std::string name = "unnamed";
  std::string summary;
  core::HardwareConfig hardware;
  core::SoftAllocation soft;
  /// Deployment shape ([topology] section). The default 3-tier chain is
  /// canonical as an *absent* section; chain4 emits only its kind; graph
  /// kinds spell out nodes ("name:role, ...") and edges
  /// ("from->to:calls[:managed], ..." with integer calls or `q` = the
  /// sampled servlet's query count). Parsed graphs are validated eagerly:
  /// from_config builds the ServiceGraph once, so cyclic or malformed
  /// topologies fail at parse time, not at run time.
  core::TopologySpec topology;
  WorkloadDecl workload;
  /// [controller]: the runnable spec itself. `kind` is "none" or a
  /// `control::controller_names()` entry (ec2 and dcm are the paper's pair,
  /// predictive / queueing / pi the zoo additions); each key reads and
  /// writes one field of the shared policy, of DcmConfig, or of the named
  /// zoo family's config.
  control::ControllerSpec controller = default_controller();
  /// [faults]: fault schedule rates. All-zero MTTFs (the default) mean a
  /// healthy run; the concrete schedule derives from the root seed, so it
  /// is never spelled out in the scenario.
  fault::FaultSpec faults;
  /// [resilience]: detail keys apply only when enabled = true; the watchdog
  /// keys additionally require the dcm controller.
  core::ResilienceSpec resilience;
  /// [trace]: `rate` applies only when enabled = true; a disabled spec is
  /// emitted as nothing at all (the section's absence is its canonical
  /// "off" spelling).
  trace::TraceSpec trace;
  double duration_seconds = 300.0;
  double warmup_seconds = 30.0;
  int max_vms = 8;
  /// Root seed; every stochastic stream of the run derives from it (see
  /// core::SeedStream and DESIGN.md "Seed derivation & deterministic sweeps").
  uint64_t seed = 1;

  bool operator==(const Scenario&) const = default;

  /// Strict translation from a parsed Config; throws std::runtime_error on
  /// unknown sections/keys, unknown kinds, or malformed values.
  static Scenario from_config(const Config& config);
  /// Parse INI text / load an INI file, then from_config.
  static Scenario parse(const std::string& text);
  static Scenario load(const std::string& path);

  /// Canonical Config emission: every field explicit, only keys that apply
  /// to the declared kinds. `from_config(to_config())` is identity.
  Config to_config() const;
  /// `to_config().to_text()` — the canonical INI form.
  std::string to_text() const;

  /// Runnable translation: resolves the trace (taxonomy name or CSV path,
  /// synthesized from the kTrace stream of the root seed); every other
  /// section is copied as is. Throws std::runtime_error on an unresolvable
  /// trace.
  core::ExperimentConfig experiment() const;
};

/// "section.key" → value overrides, in application order.
using Overrides = std::vector<std::pair<std::string, std::string>>;

/// `base` with the overrides applied (a later override of the same key
/// wins), re-validated strictly. A kind or gate override (workload.kind,
/// controller.kind, resilience.enabled, trace.enabled, topology.kind)
/// changes which keys apply, so keys the base emitted that stop applying
/// are dropped; a key an override names is always kept, so a typo'd or
/// inapplicable override still throws. Used by sweep grid points,
/// `dcm_run --set` and tournament overrides alike.
Scenario apply_overrides(const Scenario& base, const Overrides& overrides);

/// True if `Scenario::from_config` would accept [section] key under the
/// workload/controller kinds declared in `config` (throws if `config`
/// declares an unknown kind).
bool scenario_key_applies(const Config& config, const std::string& section,
                          const std::string& key);

}  // namespace dcm::scenario
