// Predictive auto-scaler: Holt double-exponential smoothing on the per-tier
// utilisation signal (the trend-only special case of Holt-Winters — the
// simulated traces carry no seasonality at control-period resolution).
//
// Each control period updates a per-tier (level, trend) pair:
//
//   level_t = α·u_t + (1−α)·(level_{t−1} + trend_{t−1})
//   trend_t = β·(level_t − level_{t−1}) + (1−β)·trend_{t−1}
//   forecast = level_t + horizon · trend_t
//
// and feeds max(u_t, forecast) into the shared threshold rule, so a rising
// ramp triggers the scale-out `horizon` periods before the raw utilisation
// crosses the threshold — buying back the VM boot delay — while a live
// breach is never ignored even if the smoothed forecast lags. Scale-in uses
// the same smoothed signal: a transient dip below the lower threshold does
// not start the scale-in streak unless the forecast agrees.
//
// The state is seeded from the first observation (level = u_0, trend = 0),
// so the first period is purely reactive, and a telemetry gap discards the
// state: a forecast extrapolated across silence would treat a stale level
// as one period old.
#pragma once

#include "common/key_row.h"
#include "control/controller.h"

namespace dcm::control {

struct PredictiveConfig {
  /// Smoothing weight on the newest observation (0 < α ≤ 1).
  double level_alpha = 0.5;
  /// Smoothing weight on the newest trend increment (0 ≤ β ≤ 1).
  double trend_beta = 0.3;
  /// Look-ahead in control periods; roughly ceil(boot_delay / period).
  int horizon_periods = 2;

  bool operator==(const PredictiveConfig&) const = default;
};

/// Scenario `[controller]` keys for kind = predictive.
inline constexpr KeyRow<PredictiveConfig> kPredictiveTuningKeys[] = {
    {.name = "alpha",
     .field = field_of<&PredictiveConfig::level_alpha>,
     .domain = {.min = 0.0, .max = 1.0, .min_open = true}},
    {.name = "beta",
     .field = field_of<&PredictiveConfig::trend_beta>,
     .domain = {.min = 0.0, .max = 1.0}},
    {.name = "horizon",
     .field = field_of<&PredictiveConfig::horizon_periods>,
     .domain = {.min = 1.0}},
};

class PredictiveController final : public ControllerBase {
 public:
  PredictiveController(sim::Engine& engine, ntier::NTierApp& app, bus::Broker& broker,
                       ScalingPolicy policy, PredictiveConfig config);

  /// Last forecast per tier (for tests/inspection); raw utilisation until
  /// the smoother has seen at least one sample.
  double forecast(size_t tier_index) const { return forecast_[tier_index]; }

 protected:
  void decide(const std::vector<TierObservation>& observations) override;

 private:
  PredictiveConfig config_;
  std::vector<double> level_;
  std::vector<double> trend_;
  std::vector<double> forecast_;
  std::vector<bool> initialized_;
};

}  // namespace dcm::control
