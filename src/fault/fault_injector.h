// FaultInjector — arms a FaultPlan against a live deployment.
//
// Targets are resolved at injection time (the fleet changes as VMs fail and
// replacements boot) by a deterministic rotation over the scalable tiers
// (depth >= 1), always hitting the oldest ACTIVE VM of the chosen tier.
// Every action — including a skipped injection with no eligible target — is
// recorded in the engine's run log (source kFault, subject = the VM id or
// topic, "" when skipped) for the dcm-result-v1 per-fault action trail.
#pragma once

#include <string>
#include <vector>

#include "bus/broker.h"
#include "fault/fault_plan.h"
#include "ntier/app.h"
#include "ntier/monitor_agent.h"
#include "sim/engine.h"

namespace dcm::fault {

class FaultInjector {
 public:
  /// `fleet` may be nullptr (agent-silence events are then skipped). All
  /// referenced objects must outlive the injector.
  FaultInjector(sim::Engine& engine, ntier::NTierApp& app, bus::Broker& broker,
                ntier::MonitorFleet* fleet, FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const { return plan_; }
  /// Events that actually hit a target (skips excluded).
  int injected_count() const { return injected_; }

 private:
  void arm();
  void inject(const FaultEvent& event);
  /// Next target tier by rotation over depths 1..tier_count-1.
  ntier::Tier* next_target_tier();
  /// kind: fault_kind_name(), or "vm_recover" / "skipped".
  void record(const char* kind, std::string target, std::string detail);

  sim::Engine* engine_;
  ntier::NTierApp* app_;
  bus::Broker* broker_;
  ntier::MonitorFleet* fleet_;
  FaultPlan plan_;
  std::vector<sim::EventHandle> armed_;
  size_t rotation_ = 0;
  int injected_ = 0;
};

}  // namespace dcm::fault
