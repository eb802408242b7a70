// Queueing-theoretic auto-scaler: M/G/1-PS target-utilisation inversion.
//
// Each tier server is modelled as an M/G/1 processor-sharing station (the
// simulator's CPU scheduler is PS), for which the mean response time
// R = S/(1−ρ) depends on the service demand S and the per-server
// utilisation ρ only — not on the service-time distribution. Fixing a
// response-time SLO therefore fixes a per-server target utilisation
// ρ* = 1 − S/R_slo, and the utilisation law makes the inversion trivial:
// the tier's total offered demand, measured in "busy servers", is
//
//   D = k · ū        (k active servers at mean utilisation ū)
//
// and D is invariant under k (the same work spread over more servers).
// The fleet size that puts every server at the target is
//
//   k* = ⌈ D / ρ* ⌉
//
// The controller smooths D with an EMA to ride out per-period noise and
// moves the tier at most one VM per period toward k* via the shared
// capacity-target actuation (booting suppression, slow scale-in streak).
#pragma once

#include "common/key_row.h"
#include "control/controller.h"

namespace dcm::control {

struct QueueingConfig {
  /// Per-server target utilisation ρ* (0 < ρ* < 1). The default 0.6 keeps
  /// M/G/1-PS response time at 2.5× the bare service demand.
  double target_util = 0.6;
  /// EMA weight on the newest demand sample (0 < w ≤ 1; 1 = no smoothing).
  double demand_smoothing = 0.5;

  bool operator==(const QueueingConfig&) const = default;
};

/// Scenario `[controller]` keys for kind = queueing.
inline constexpr KeyRow<QueueingConfig> kQueueingTuningKeys[] = {
    {.name = "target_util",
     .field = field_of<&QueueingConfig::target_util>,
     .domain = {.min = 0.0, .max = 1.0, .min_open = true, .max_open = true}},
};

class QueueingController final : public ControllerBase {
 public:
  QueueingController(sim::Engine& engine, ntier::NTierApp& app, bus::Broker& broker,
                     ScalingPolicy policy, QueueingConfig config);

  /// Smoothed demand estimate in busy-servers for a tier (tests/inspection).
  double demand_estimate(size_t tier_index) const { return demand_[tier_index]; }

 protected:
  void decide(const std::vector<TierObservation>& observations) override;

 private:
  QueueingConfig config_;
  std::vector<double> demand_;
  std::vector<bool> initialized_;
};

}  // namespace dcm::control
