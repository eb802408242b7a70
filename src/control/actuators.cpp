#include "control/actuators.h"

#include "common/strings.h"

namespace dcm::control {

VmAgent::VmAgent(sim::Engine& engine, ntier::NTierApp& app) : engine_(&engine), app_(&app) {}

bool VmAgent::scale_out(size_t tier_index) {
  ntier::Tier& tier = app_->tier(tier_index);
  if (!tier.scale_out()) return false;
  engine_->record(sim::EventSource::kControl, tier.name(), "scale_out",
                  str_format("provisioned=%d", tier.provisioned_vm_count()));
  return true;
}

bool VmAgent::scale_in(size_t tier_index) {
  ntier::Tier& tier = app_->tier(tier_index);
  if (!tier.scale_in()) return false;
  engine_->record(sim::EventSource::kControl, tier.name(), "scale_in",
                  str_format("provisioned=%d", tier.provisioned_vm_count()));
  return true;
}

AppAgent::AppAgent(sim::Engine& engine, ntier::NTierApp& app) : engine_(&engine), app_(&app) {}

void AppAgent::set_thread_pool_size(size_t tier_index, int per_server) {
  ntier::Tier& tier = app_->tier(tier_index);
  if (tier.current_thread_pool_size() == per_server) return;
  tier.set_thread_pool_size(per_server);
  engine_->record(sim::EventSource::kControl, tier.name(), "set_stp",
                  str_format("stp=%d", per_server));
}

void AppAgent::set_downstream_connections(size_t tier_index, int per_server) {
  ntier::Tier& tier = app_->tier(tier_index);
  if (tier.current_downstream_connections() == per_server) return;
  tier.set_downstream_connections(per_server);
  engine_->record(sim::EventSource::kControl, tier.name(), "set_conns",
                  str_format("conns=%d", per_server));
}

}  // namespace dcm::control
