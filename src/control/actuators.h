// The two actuators of the DCM architecture (paper Sec. IV).
//
// VmAgent — VM-level scaling: start/stop VMs through the tier (the
// hypervisor-API substitute).
// AppAgent — fine-grained soft-resource re-allocation: live-resizes server
// thread pools and DB connection pools.
//
// Every action that takes effect is recorded once in the engine's run log
// (source kControl, subject = the tier).
#pragma once

#include "ntier/app.h"
#include "sim/engine.h"

namespace dcm::control {

class VmAgent {
 public:
  VmAgent(sim::Engine& engine, ntier::NTierApp& app);

  /// Returns false when the tier is already at its max (or min) size.
  bool scale_out(size_t tier_index);
  bool scale_in(size_t tier_index);

 private:
  sim::Engine* engine_;
  ntier::NTierApp* app_;
};

class AppAgent {
 public:
  AppAgent(sim::Engine& engine, ntier::NTierApp& app);

  /// Sets the per-server worker thread pool of a tier (no-op if unchanged).
  void set_thread_pool_size(size_t tier_index, int per_server);
  /// Sets the per-server connection pool toward the downstream tier.
  void set_downstream_connections(size_t tier_index, int per_server);

 private:
  sim::Engine* engine_;
  ntier::NTierApp* app_;
};

}  // namespace dcm::control
