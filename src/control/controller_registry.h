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
/// Only the named family's config is read, and `make_controller` stamps
/// `policy` into it, so callers set the policy once and fill only the knobs
/// of the family they chose.
struct ControllerSpec {
  /// A `controller_names()` entry; "none" or "" = no controller.
  std::string name = "none";
  ScalingPolicy policy;
  DcmConfig dcm;
  PredictiveConfig predictive;
  QueueingConfig queueing;
  PiConfig pi;

  bool enabled() const { return !name.empty() && name != "none"; }

  static ControllerSpec none();
  static ControllerSpec ec2(ScalingPolicy policy = {});
  static ControllerSpec dcm_controller(DcmConfig config);
  static ControllerSpec predictive_controller(PredictiveConfig config);
  static ControllerSpec queueing_controller(QueueingConfig config);
  static ControllerSpec pi_controller(PiConfig config);
};

/// Registered controller names, sorted (stable sweep-axis order).
const std::vector<std::string>& controller_names();

bool has_controller(const std::string& name);

/// Constructs the controller `spec.name` names. Throws std::invalid_argument
/// for an unknown name (including "none").
std::unique_ptr<ControllerBase> make_controller(sim::Engine& engine, ntier::NTierApp& app,
                                                bus::Broker& broker, const ControllerSpec& spec);

}  // namespace dcm::control
