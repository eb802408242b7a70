#include "control/controller_registry.h"

#include <stdexcept>
#include <utility>

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

ControllerSpec ControllerSpec::none() { return {}; }

ControllerSpec ControllerSpec::ec2(ScalingPolicy policy) {
  ControllerSpec spec;
  spec.name = "ec2";
  spec.policy = policy;
  return spec;
}

ControllerSpec ControllerSpec::dcm_controller(DcmConfig config) {
  ControllerSpec spec;
  spec.name = "dcm";
  spec.policy = config.policy;
  spec.dcm = std::move(config);
  return spec;
}

ControllerSpec ControllerSpec::predictive_controller(PredictiveConfig config) {
  ControllerSpec spec;
  spec.name = "predictive";
  spec.policy = config.policy;
  spec.predictive = config;
  return spec;
}

ControllerSpec ControllerSpec::queueing_controller(QueueingConfig config) {
  ControllerSpec spec;
  spec.name = "queueing";
  spec.policy = config.policy;
  spec.queueing = config;
  return spec;
}

ControllerSpec ControllerSpec::pi_controller(PiConfig config) {
  ControllerSpec spec;
  spec.name = "pi";
  spec.policy = config.policy;
  spec.pi = config;
  return spec;
}

std::unique_ptr<ControllerBase> make_controller(sim::Engine& engine, ntier::NTierApp& app,
                                                bus::Broker& broker, const ControllerSpec& spec) {
  const std::string& name = spec.name;
  if (name == "ec2") {
    return std::make_unique<Ec2AutoScaleController>(engine, app, broker, spec.policy);
  }
  if (name == "dcm") {
    DcmConfig config = spec.dcm;
    config.policy = spec.policy;
    return std::make_unique<DcmController>(engine, app, broker, std::move(config));
  }
  if (name == "predictive") {
    PredictiveConfig config = spec.predictive;
    config.policy = spec.policy;
    return std::make_unique<PredictiveController>(engine, app, broker, config);
  }
  if (name == "queueing") {
    QueueingConfig config = spec.queueing;
    config.policy = spec.policy;
    return std::make_unique<QueueingController>(engine, app, broker, config);
  }
  if (name == "pi") {
    PiConfig config = spec.pi;
    config.policy = spec.policy;
    return std::make_unique<PiController>(engine, app, broker, config);
  }
  throw std::invalid_argument("unknown controller: " + name);
}

}  // namespace dcm::control
