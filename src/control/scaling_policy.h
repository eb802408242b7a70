// Shared VM-level scaling policy (paper Sec. V-B).
//
// Every controller uses the same "quick start, slow turn off" hardware rule
// learned from AutoScale: scale out when a tier's utilisation exceeds the
// upper threshold during one control period; scale in only after the
// utilisation stays below the lower threshold for several consecutive
// periods. As in the paper's experiments, the front (web) tier is never
// scaled, and a tier with a VM still booting launches no further VM.
#pragma once

namespace dcm::control {

struct ScalingPolicy {
  /// Seconds between control ticks; ControllerBase converts it to SimTime
  /// once, at construction.
  double control_period_seconds = 15.0;
  double scale_out_util = 0.80;
  double scale_in_util = 0.40;
  int scale_in_consecutive = 3;

  // --- extensions beyond the paper's policy ---

  /// SLA-driven trigger: also scale a tier out when its completion-weighted
  /// mean response time over the period exceeds this (seconds; 0 = off).
  double scale_out_response_time = 0.0;
  /// Schmitt-trigger band half-width applied to both utilisation thresholds
  /// (see control/hysteresis.h). 0 keeps the bare strict comparisons and the
  /// historical digests; > 0 requires the signal to breach
  /// threshold ± hysteresis before a trigger arms or disarms, killing scale
  /// flapping when utilisation hovers at a threshold.
  double hysteresis = 0.0;

  bool operator==(const ScalingPolicy&) const = default;
};

}  // namespace dcm::control
