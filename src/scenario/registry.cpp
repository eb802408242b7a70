#include "scenario/registry.h"

#include <stdexcept>
#include <utility>

namespace dcm::scenario {
namespace {

// Sorted by name. Texts are the canonical user-facing INI form — only the
// keys that differ from the scenario defaults, with [scenario] metadata.
const std::vector<std::pair<std::string, std::string>>& table() {
  static const std::vector<std::pair<std::string, std::string>> kScenarios = {
      {"ablation-soft-only",
       "[scenario]\n"
       "name = ablation-soft-only\n"
       "summary = DCM clamped to one VM per tier: only soft-resource adaptation acts\n"
       "\n[soft]\napp_threads = 200\n"
       "\n[workload]\nkind = trace\ntrace = large-variation\npeak_users = 350\n"
       "\n[controller]\nkind = dcm\n"
       "\n[run]\nduration = 700\nwarmup = 30\nmax_vms = 1\n"},

      {"ablation-wrong-models",
       "[scenario]\n"
       "name = ablation-wrong-models\n"
       "summary = DCM driven by badly-fitted models (optima near the default pools)\n"
       "\n[soft]\napp_threads = 200\n"
       "\n[workload]\nkind = trace\ntrace = large-variation\npeak_users = 350\n"
       "\n[controller]\nkind = dcm\n"
       // N_b lands near 200 (Tomcat) / 160 (MySQL) instead of 20 / 36, so
       // DCM degenerates to hardware-only behaviour.
       "app_model = 2.84e-2, 1e-4, 7.075e-7\n"
       "db_model = 7.19e-3, 1e-4, 2.76953125e-7\n"
       "\n[run]\nduration = 700\nwarmup = 30\n"},

      {"chaos-resilience",
       "[scenario]\n"
       "name = chaos-resilience\n"
       "summary = DCM under a deterministic fault schedule with the resilience stack armed "
       "(sweep resilience.enabled for the ablation)\n"
       "\n[soft]\napp_threads = 200\n"
       "\n[workload]\nkind = trace\ntrace = large-variation\npeak_users = 350\n"
       "\n[controller]\nkind = dcm\nonline_estimation = true\n"
       // Canonical chaos schedule: roughly two crashes, two slowdowns and
       // one telemetry blackout per 300 s run, all derived from [run] seed.
       "\n[faults]\ncrash_mttf = 120\nslowdown_mttf = 150\n"
       "telemetry_loss_mttf = 250\ntelemetry_loss_duration = 45\n"
       "agent_silence_mttf = 200\n"
       "\n[resilience]\nenabled = true\nmin_fit_r2 = 0.5\n"
       "\n[run]\nduration = 300\nwarmup = 30\n"},

      {"diamond-cache",
       "[scenario]\n"
       "name = diamond-cache\n"
       "summary = diamond topology (app fans out to cache + db, joins before reply): "
       "DCM's node ranking must agree with the per-edge trace attribution\n"
       // With 3 app VMs the DB (V = 2) is the clear capacity limiter:
       // 1/(2·7.19e-3) ≈ 70 req/s vs 3/2.84e-2 ≈ 106 for the app nodes.
       "\n[hardware]\napp = 3\n"
       "\n[topology]\nkind = graph\n"
       "nodes = apache:web, tomcat:app, memcache:cache, mysql:db\n"
       "edges = apache->tomcat:1, tomcat->memcache:1, tomcat->mysql:q:managed\n"
       "\n[workload]\nkind = rubbos\nusers = 300\n"
       "\n[controller]\nkind = dcm\n"
       "\n[trace]\nenabled = true\nrate = 1\n"
       "\n[run]\nduration = 120\nwarmup = 30\n"},

      {"fanout-join",
       "[scenario]\n"
       "name = fanout-join\n"
       "summary = three-way fan-out with synchronous join (two cache branches + the managed "
       "DB pool) on a fixed allocation\n"
       "\n[topology]\nkind = graph\n"
       "nodes = apache:web, tomcat:app, memcache:cache, redis:cache, mysql:db\n"
       "edges = apache->tomcat:1, tomcat->memcache:1, tomcat->redis:2, "
       "tomcat->mysql:q:managed\n"
       "\n[workload]\nkind = rubbos\nusers = 150\n"
       "\n[run]\nduration = 90\nwarmup = 30\n"},

      {"fig2b",
       "[scenario]\n"
       "name = fig2b\n"
       "summary = scale-out without pool re-tuning (sweep workload.users and the deployment)\n"
       "\n[workload]\nkind = rubbos\nusers = 300\n"
       "\n[run]\nduration = 150\nwarmup = 50\nseed = 77\n"},

      {"fig4a",
       "[scenario]\n"
       "name = fig4a\n"
       "summary = model validation at 1/1/1 (sweep soft.app_threads around the optimum 20)\n"
       "\n[workload]\nkind = rubbos\nusers = 300\n"
       "\n[run]\nduration = 150\nwarmup = 50\nseed = 31\n"},

      {"fig4b",
       "[scenario]\n"
       "name = fig4b\n"
       "summary = model validation at 1/2/1 (sweep soft.db_connections around the optimum 18)\n"
       "\n[hardware]\napp = 2\n"
       "\n[workload]\nkind = rubbos\nusers = 300\n"
       "\n[run]\nduration = 150\nwarmup = 50\nseed = 31\n"},

      {"fig5",
       "[scenario]\n"
       "name = fig5\n"
       "summary = DCM under the Large-Variation bursty trace (paper Fig. 5 left panels)\n"
       "\n[soft]\napp_threads = 200\n"
       "\n[workload]\nkind = trace\ntrace = large-variation\npeak_users = 350\n"
       "\n[controller]\nkind = dcm\n"
       "\n[run]\nduration = 700\nwarmup = 30\n"},

      {"fig5-ec2",
       "[scenario]\n"
       "name = fig5-ec2\n"
       "summary = EC2-AutoScale baseline under the Large-Variation trace (Fig. 5 right panels)\n"
       "\n[soft]\napp_threads = 200\n"
       "\n[workload]\nkind = trace\ntrace = large-variation\npeak_users = 350\n"
       "\n[controller]\nkind = ec2\n"
       "\n[run]\nduration = 700\nwarmup = 30\n"},

      {"quickstart",
       "[scenario]\n"
       "name = quickstart\n"
       "summary = small fixed-allocation RUBBoS run, the fastest end-to-end smoke\n"
       "\n[workload]\nkind = rubbos\nusers = 100\n"
       "\n[run]\nduration = 60\nwarmup = 15\n"},

      {"table1-mysql",
       "[scenario]\n"
       "name = table1-mysql\n"
       "summary = MySQL training deployment (1/2/1 with wide-open pools, sweep workload.users)\n"
       "\n[hardware]\napp = 2\n"
       "\n[soft]\ndb_connections = 400\n"
       "\n[workload]\nkind = jmeter\nusers = 36\n"
       "\n[run]\nduration = 90\nwarmup = 30\n"},

      {"table1-tomcat",
       "[scenario]\n"
       "name = table1-tomcat\n"
       "summary = Tomcat training deployment (1/1/1 with wide-open pools, sweep workload.users)\n"
       "\n[soft]\ndb_connections = 400\n"
       "\n[workload]\nkind = jmeter\nusers = 20\n"
       "\n[run]\nduration = 90\nwarmup = 30\n"},

      {"trace-attribution",
       "[scenario]\n"
       "name = trace-attribution\n"
       "summary = saturated app tier under full request tracing: the latency waterfall "
       "should pin the p99 on app-tier pool-queue wait\n"
       // The undersized app thread pool is the bottleneck fig4a sweeps
       // around; at 300 users it queues heavily while web and db stay lean.
       "\n[soft]\napp_threads = 20\n"
       "\n[workload]\nkind = rubbos\nusers = 300\n"
       "\n[trace]\nenabled = true\nrate = 1\n"
       "\n[run]\nduration = 120\nwarmup = 30\nseed = 7\n"},
  };
  return kScenarios;
}

}  // namespace

std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  names.reserve(table().size());
  for (const auto& [name, text] : table()) names.push_back(name);
  return names;
}

bool has_scenario(const std::string& name) {
  for (const auto& [known, text] : table()) {
    if (known == name) return true;
  }
  return false;
}

const std::string& scenario_text(const std::string& name) {
  for (const auto& [known, text] : table()) {
    if (known == name) return text;
  }
  std::string known_names;
  for (const auto& [known, text] : table()) {
    known_names += known_names.empty() ? known : ", " + known;
  }
  throw std::runtime_error("unknown scenario '" + name + "' (known: " + known_names + ")");
}

Scenario get_scenario(const std::string& name) {
  return Scenario::parse(scenario_text(name));
}

Scenario resolve_scenario(const std::string& name_or_path) {
  if (!has_scenario(name_or_path) &&
      name_or_path.find_first_of("./") != std::string::npos) {
    return Scenario::load(name_or_path);
  }
  return get_scenario(name_or_path);  // throws with the known-name list
}

std::optional<uint64_t> expected_result_digest(const std::string& name) {
  // result_digest of one canonical, override-free run per scenario. These
  // are bit-for-bit reference values: they were captured before the
  // slab/arena request-path refactor and must never change as a side effect
  // of a performance change. Re-capture ONLY when a scenario's definition
  // or the simulation model itself intentionally changes, and say so in the
  // commit message.
  static const std::vector<std::pair<std::string, uint64_t>> kDigests = {
      {"ablation-soft-only", 5015007590498637810ull},
      {"ablation-wrong-models", 3915615181683623565ull},
      {"chaos-resilience", 11487354307476855148ull},
      {"diamond-cache", 3232967541302041960ull},
      {"fanout-join", 4785642922260310638ull},
      {"fig2b", 13818073293857242208ull},
      {"fig4a", 1906107478622041724ull},
      {"fig4b", 14887783658272758290ull},
      {"fig5", 2825516737655928980ull},
      {"fig5-ec2", 3725650455189126203ull},
      {"quickstart", 8007654335316031933ull},
      {"table1-mysql", 9121944041707887455ull},
      {"table1-tomcat", 12912515698735263347ull},
      {"trace-attribution", 11860974645080426256ull},
  };
  for (const auto& [known, digest] : kDigests) {
    if (known == name) return digest;
  }
  return std::nullopt;
}

}  // namespace dcm::scenario
