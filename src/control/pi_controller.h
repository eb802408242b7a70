// Control-theoretic auto-scaler: discrete PI on the utilisation error with
// anti-windup.
//
// Each control period computes the per-tier error e_t = ū_t − ρ* and a PI
// control signal
//
//   Δ_t = Kp·e_t + Ki·Σe      (Σe = the clamped running error integral)
//
// interpreted as "VMs worth of pressure": Δ above the deadband requests one
// more VM, Δ below −deadband requests one fewer, and the request goes
// through the shared capacity-target actuation (booting suppression, slow
// scale-in streak). The proportional term reacts to the instantaneous
// error; the integral term removes the steady-state offset a pure
// threshold rule leaves when utilisation settles just under the trigger.
//
// Anti-windup, two mechanisms:
//   * conditional integration — when the actuator cannot follow (tier at
//     its VM limit, launch suppressed while a VM boots), the integral is
//     frozen instead of accumulating an error the plant can never remove;
//   * reset on actuation — once a VM is actually added or removed the
//     accumulated evidence is about the old fleet, so the integral restarts
//     from zero (a back-calculation step aggressive enough for a ±1 VM/period
//     actuator).
// The integral is additionally clamped to ±integral_limit as a backstop.
#pragma once

#include "common/key_row.h"
#include "control/controller.h"

namespace dcm::control {

struct PiConfig {
  /// Per-server utilisation setpoint ρ* (0 < ρ* < 1).
  double target_util = 0.6;
  /// Proportional gain (VMs per unit utilisation error).
  double kp = 2.0;
  /// Integral gain (VMs per unit accumulated error).
  double ki = 0.5;
  /// |Δ| must exceed this before a VM is requested (hold band).
  double deadband = 0.5;
  /// Clamp on the running error integral (anti-windup backstop).
  double integral_limit = 5.0;

  bool operator==(const PiConfig&) const = default;
};

/// Scenario `[controller]` keys for kind = pi.
inline constexpr KeyRow<PiConfig> kPiTuningKeys[] = {
    {.name = "target_util",
     .field = field_of<&PiConfig::target_util>,
     .domain = {.min = 0.0, .max = 1.0, .min_open = true, .max_open = true}},
    {.name = "kp", .field = field_of<&PiConfig::kp>, .domain = {.min = 0.0}},
    {.name = "ki", .field = field_of<&PiConfig::ki>, .domain = {.min = 0.0}},
    {.name = "deadband", .field = field_of<&PiConfig::deadband>, .domain = {.min = 0.0}},
};

class PiController final : public ControllerBase {
 public:
  PiController(sim::Engine& engine, ntier::NTierApp& app, bus::Broker& broker,
               ScalingPolicy policy, PiConfig config);

  /// Current error integral for a tier (tests/inspection).
  double integral(size_t tier_index) const { return integral_[tier_index]; }

 protected:
  void decide(const std::vector<TierObservation>& observations) override;

 private:
  PiConfig config_;
  std::vector<double> integral_;
};

}  // namespace dcm::control
