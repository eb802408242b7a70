#include "control/controller_registry.h"

#include <stdexcept>

#include "control/ec2_autoscale.h"

namespace dcm::control {

const std::vector<std::string>& controller_names() {
  // Sorted by hand; registry_names_sorted in the tests pins it.
  static const std::vector<std::string> kNames = {"dcm", "ec2", "pi", "predictive", "queueing"};
  return kNames;
}

bool has_controller(const std::string& name) {
  for (const auto& known : controller_names()) {
    if (known == name) return true;
  }
  return false;
}

std::unique_ptr<ControllerBase> make_controller(sim::Engine& engine, ntier::NTierApp& app,
                                                bus::Broker& broker, const ControllerSpec& spec) {
  const std::string& name = spec.name;
  if (name == "ec2") {
    return std::make_unique<Ec2AutoScaleController>(engine, app, broker, spec.policy);
  }
  if (name == "dcm") {
    return std::make_unique<DcmController>(engine, app, broker, spec.policy, spec.dcm);
  }
  if (name == "predictive") {
    return std::make_unique<PredictiveController>(engine, app, broker, spec.policy,
                                                  spec.predictive);
  }
  if (name == "queueing") {
    return std::make_unique<QueueingController>(engine, app, broker, spec.policy, spec.queueing);
  }
  if (name == "pi") {
    return std::make_unique<PiController>(engine, app, broker, spec.policy, spec.pi);
  }
  throw std::invalid_argument("unknown controller: " + name);
}

}  // namespace dcm::control
