#include "control/pi_controller.h"

#include <algorithm>

#include "common/check.h"

namespace dcm::control {

PiController::PiController(sim::Engine& engine, ntier::NTierApp& app, bus::Broker& broker,
                           ScalingPolicy policy, PiConfig config)
    : ControllerBase(engine, app, broker, policy, "pi"),
      config_(config),
      integral_(app.tier_count(), 0.0) {
  DCM_CHECK(config_.target_util > 0.0 && config_.target_util < 1.0);
  DCM_CHECK(config_.kp >= 0.0);
  DCM_CHECK(config_.ki >= 0.0);
  DCM_CHECK(config_.deadband >= 0.0);
  DCM_CHECK(config_.integral_limit > 0.0);
}

void PiController::decide(const std::vector<TierObservation>& observations) {
  for (size_t i = 0; i < observations.size(); ++i) {
    const TierObservation& obs = observations[i];
    if (obs.samples == 0) continue;  // no evidence: hold the integral

    const double error = obs.mean_util - config_.target_util;
    const double proposed = std::clamp(integral_[i] + error, -config_.integral_limit,
                                       config_.integral_limit);
    const double delta = config_.kp * error + config_.ki * proposed;

    int desired = obs.active_vms;
    if (delta > config_.deadband) {
      desired = obs.active_vms + obs.booting_vms + 1;
    } else if (delta < -config_.deadband) {
      desired = obs.active_vms - 1;
    }

    const bool wanted_change = desired != obs.active_vms;
    const bool acted = actuate_toward(i, obs, desired);
    if (acted) {
      // Back-calculation-style reset: the fleet just changed, so the
      // accumulated error argues about a plant that no longer exists.
      integral_[i] = 0.0;
    } else if (wanted_change) {
      // Conditional integration: the actuator refused (tier limit, booting
      // suppression, scale-in streak still building). Freeze the integral so
      // it doesn't wind up against a saturated actuator.
    } else {
      integral_[i] = proposed;
    }
  }
}

}  // namespace dcm::control
