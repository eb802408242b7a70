// Beyond-the-paper sweep: DCM vs EC2-AutoScale across the full AutoScale
// trace taxonomy (Gandhi et al.), of which the paper evaluated only the
// Large-Variation pattern. Shows, per pattern, which controller wins p95
// response time, max response time and throughput; the closing verdicts are
// computed from the table's own rows.
//
// Declarative 6×2 grid over the registered "fig5" scenario: the trace
// pattern and the controller kind are sweep axes, the seed policy is fixed
// so both controllers face the identical synthesized trace, and the runs
// execute on all available cores (bit-identical results regardless of the
// worker count — see src/scenario/sweep.h).
#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/table.h"
#include "scenario/registry.h"
#include "scenario/sweep.h"
#include "workload/trace_taxonomy.h"

using namespace dcm;

int main() {
  set_log_level(LogLevel::kWarn);
  std::puts("=== DCM vs EC2-AutoScale across the AutoScale trace taxonomy ===\n");

  std::string patterns;
  for (const auto pattern : workload::all_trace_patterns()) {
    const char* name = workload::trace_pattern_name(pattern);
    patterns += patterns.empty() ? name : "," + std::string(name);
  }

  scenario::SweepPlan plan;
  plan.base = scenario::get_scenario("fig5");
  plan.axes.push_back(scenario::parse_axis("workload.trace=" + patterns));
  plan.axes.push_back(scenario::parse_axis("controller.kind=dcm,ec2"));
  plan.seed_policy = scenario::SeedPolicy::kFixed;
  const auto runs = scenario::SweepRunner(std::move(plan), /*jobs=*/0).run();

  TextTable table({"pattern", "dcm_rt_p95_ms", "ec2_rt_p95_ms", "dcm_rt_max_ms",
                   "ec2_rt_max_ms", "dcm_x", "ec2_x"});
  // The closing verdicts are derived from the printed cells, so the prose can
  // never disagree with the table above it.
  std::vector<std::string> verdicts;
  // controller.kind is the fast axis: runs arrive as (trace, dcm), (trace, ec2).
  for (size_t i = 0; i + 1 < runs.size(); i += 2) {
    const auto& dcm_result = runs[i].result;
    const auto& ec2_result = runs[i + 1].result;
    const std::vector<std::string> row = {
        runs[i].overrides[0].second,
        format_number(dcm_result.p95_response_time * 1e3, 0),
        format_number(ec2_result.p95_response_time * 1e3, 0),
        format_number(dcm_result.max_response_time * 1e3, 0),
        format_number(ec2_result.max_response_time * 1e3, 0),
        format_number(dcm_result.mean_throughput, 1),
        format_number(ec2_result.mean_throughput, 1)};
    table.add_row(row);
    // p95 and max RT are lower-is-better, throughput higher-is-better.
    struct Metric {
      const char* name;
      size_t dcm_col;
      bool lower_is_better;
    };
    std::string dcm_wins, ec2_wins, ties;
    for (const Metric& m : {Metric{"p95", 1, true}, Metric{"max", 3, true},
                            Metric{"throughput", 5, false}}) {
      const double dcm = std::stod(row[m.dcm_col]);
      const double ec2 = std::stod(row[m.dcm_col + 1]);
      std::string& bucket =
          dcm == ec2 ? ties : ((dcm < ec2) == m.lower_is_better ? dcm_wins : ec2_wins);
      bucket += bucket.empty() ? m.name : std::string(", ") + m.name;
    }
    std::string verdict = "  " + row[0] + ":";
    if (!dcm_wins.empty()) verdict += " DCM wins " + dcm_wins + ";";
    if (!ec2_wins.empty()) verdict += " EC2 wins " + ec2_wins + ";";
    if (!ties.empty()) verdict += " tie on " + ties + ";";
    verdict.pop_back();
    verdicts.push_back(std::move(verdict));
  }
  table.print();
  std::puts("\n(the paper's Fig. 5 uses large-variation; per pattern, which controller");
  std::puts(" wins each metric as printed above: lower p95 and max RT, higher throughput)");
  for (const std::string& verdict : verdicts) std::puts(verdict.c_str());
  return 0;
}
