#include "control/predictive_controller.h"

#include <algorithm>

#include "common/check.h"

namespace dcm::control {

PredictiveController::PredictiveController(sim::Engine& engine, ntier::NTierApp& app,
                                           bus::Broker& broker, ScalingPolicy policy,
                                           PredictiveConfig config)
    : ControllerBase(engine, app, broker, policy, "predictive"),
      config_(config),
      level_(app.tier_count(), 0.0),
      trend_(app.tier_count(), 0.0),
      forecast_(app.tier_count(), 0.0),
      initialized_(app.tier_count(), false) {
  DCM_CHECK(config_.level_alpha > 0.0 && config_.level_alpha <= 1.0);
  DCM_CHECK(config_.trend_beta >= 0.0 && config_.trend_beta <= 1.0);
  DCM_CHECK(config_.horizon_periods >= 1);
}

void PredictiveController::decide(const std::vector<TierObservation>& observations) {
  for (size_t i = 0; i < observations.size(); ++i) {
    const TierObservation& obs = observations[i];
    if (obs.samples == 0) {
      // Telemetry gap: a forecast from a stale level would treat it as one
      // period old. Re-seed from the next real observation.
      initialized_[i] = false;
      continue;
    }
    if (!initialized_[i]) {
      level_[i] = obs.mean_util;
      trend_[i] = 0.0;
      initialized_[i] = true;
      forecast_[i] = obs.mean_util;  // period 0 is purely reactive
    } else {
      const double previous_level = level_[i];
      level_[i] = config_.level_alpha * obs.mean_util +
                  (1.0 - config_.level_alpha) * (previous_level + trend_[i]);
      trend_[i] = config_.trend_beta * (level_[i] - previous_level) +
                  (1.0 - config_.trend_beta) * trend_[i];
      forecast_[i] = level_[i] + static_cast<double>(config_.horizon_periods) * trend_[i];
    }
    // A live breach always counts; the forecast only moves the scale-out
    // trigger earlier. The same max() on the scale-in side means a transient
    // dip starts the streak only when the forecast is also below the lower
    // threshold.
    const double signal = std::max(obs.mean_util, forecast_[i]);
    apply_threshold_rule(i, obs, signal, signal);
  }
}

}  // namespace dcm::control
