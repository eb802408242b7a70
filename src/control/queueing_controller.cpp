#include "control/queueing_controller.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace dcm::control {

QueueingController::QueueingController(sim::Engine& engine, ntier::NTierApp& app,
                                       bus::Broker& broker, ScalingPolicy policy,
                                       QueueingConfig config)
    : ControllerBase(engine, app, broker, policy, "queueing"),
      config_(config),
      demand_(app.tier_count(), 0.0),
      initialized_(app.tier_count(), false) {
  DCM_CHECK(config_.target_util > 0.0 && config_.target_util < 1.0);
  DCM_CHECK(config_.demand_smoothing > 0.0 && config_.demand_smoothing <= 1.0);
}

void QueueingController::decide(const std::vector<TierObservation>& observations) {
  for (size_t i = 0; i < observations.size(); ++i) {
    const TierObservation& obs = observations[i];
    if (obs.samples == 0 || obs.active_vms <= 0) continue;  // hold the estimate

    // Utilisation law: total demand in busy-servers, invariant under the
    // fleet size actually serving it.
    const double demand = static_cast<double>(obs.active_vms) * obs.mean_util;
    if (initialized_[i]) {
      demand_[i] = config_.demand_smoothing * demand +
                   (1.0 - config_.demand_smoothing) * demand_[i];
    } else {
      demand_[i] = demand;
      initialized_[i] = true;
    }

    // k* = ceil(D / ρ*), with a whisker of slack so FP noise on an exact
    // multiple (D = 1.2, ρ* = 0.6) doesn't round a 2-server answer up to 3.
    const int desired =
        std::max(1, static_cast<int>(std::ceil(demand_[i] / config_.target_util - 1e-9)));
    actuate_toward(i, obs, desired);
  }
}

}  // namespace dcm::control
