// Name-keyed controller registry: the single place that knows every
// concrete auto-scaler. `src/scenario` exposes the names as the
// `controller.kind` vocabulary and sweep axis, and `dcm_run tournament`
// iterates them to race the whole zoo.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "control/controller.h"
#include "control/dcm_controller.h"
#include "control/pi_controller.h"
#include "control/predictive_controller.h"
#include "control/queueing_controller.h"

namespace dcm::control {

/// A controller choice: the registry name plus everything its construction
/// might need — the shared VM-level policy and each family's tuning knobs.
/// `make_controller` hands the policy and the named family's config to that
/// family's constructor; the other families' configs are not read.
struct ControllerSpec {
  /// A `controller_names()` entry, or "none" for no controller.
  std::string name = "none";
  // Braced so a designated initializer may name only what it sets.
  ScalingPolicy policy{};
  DcmConfig dcm{};
  PredictiveConfig predictive{};
  QueueingConfig queueing{};
  PiConfig pi{};

  bool enabled() const { return name != "none"; }

  bool operator==(const ControllerSpec&) const = default;
};

/// Registered controller names, sorted (stable sweep-axis order).
const std::vector<std::string>& controller_names();

bool has_controller(const std::string& name);

/// Constructs the controller `spec.name` names. Throws std::invalid_argument
/// for an unknown name (including "none").
std::unique_ptr<ControllerBase> make_controller(sim::Engine& engine, ntier::NTierApp& app,
                                                bus::Broker& broker, const ControllerSpec& spec);

}  // namespace dcm::control
