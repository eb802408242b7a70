// Property: the scenario's [controller] section is the runnable
// control::ControllerSpec itself. For every registered scenario under every
// controller kind, the overridden scenario is a canonical fixed point of
// parse/emit, and the experiment it builds carries exactly its spec.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "control/controller_registry.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"

namespace dcm::scenario {
namespace {

TEST(ScenarioPropertyTest, EveryKindRoundTripsAndRunsItsOwnSpec) {
  std::vector<std::string> kinds = {"none"};
  for (const std::string& name : control::controller_names()) kinds.push_back(name);
  for (const std::string& name : scenario_names()) {
    for (const std::string& kind : kinds) {
      const std::string label = name + "/" + kind;
      const Scenario scenario = apply_overrides(get_scenario(name), {{"controller.kind", kind}});
      EXPECT_EQ(scenario.controller.name, kind) << label;
      const Scenario again = Scenario::parse(scenario.to_text());
      EXPECT_TRUE(again == scenario) << label;
      EXPECT_EQ(again.to_text(), scenario.to_text()) << label;
      EXPECT_TRUE(apply_overrides(scenario, {}) == scenario) << label;
      EXPECT_TRUE(scenario.experiment().controller == scenario.controller) << label;
    }
  }
}

}  // namespace
}  // namespace dcm::scenario
