// perfbench_driver: runs one benchmark workload through the simulator's
// public API and prints one JSON line of results on stdout.
//
//   perfbench_driver --workload fig5-dcm|diamond-traced|tournament
//                    --seed N --seconds S --trace 0|1
//                    [--setup-only | --one-unit] [--spans-out PATH]
//
// A unit of work is one run of a registered scenario (run + digest + JSON
// report) or one default tournament (run + scorecard digest + JSON report).
// Units are issued back to back by one caller: a closed loop with a single
// client. Every unit is checked against a pinned digest at the canonical
// seed, and against the run's first digest at any other seed, so a fast but
// wrong simulation counts as a failed unit, never as a speed-up.
//
// --trace 0 measures the end-to-end numbers with no spans recorded.
// --trace 1 alternates untraced and traced units, records spans around every
// call into the library, runs the per-layer probes and reports per-layer
// numbers. --setup-only stops right before the first call into
// run_experiment / run_tournament, so run.py can time set-up across several
// processes; --one-unit runs one checked unit and reports the process's peak
// memory. run.py builds this program, validates the metric names against
// BENCHMARK.json and prints the result line; see NOTES.md.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bus/broker.h"
#include "bus/consumer.h"
#include "bus/producer.h"
#include "common/logging.h"
#include "control/controller_registry.h"
#include "core/experiment.h"
#include "core/topologies.h"
#include "ntier/cpu_scheduler.h"
#include "ntier/metric_sample.h"
#include "scenario/registry.h"
#include "scenario/result_writer.h"
#include "scenario/sweep.h"
#include "scenario/tournament.h"
#include "sim/engine.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_LTO
#define PERFBENCH_LTO 0
#endif

namespace {

using namespace dcm;

/// Every registered scenario without a [run] seed key runs at root seed 1;
/// the pins below hold only at this seed.
constexpr uint64_t kCanonicalSeed = 1;
/// scorecard_digest of the default tournament (every registered controller
/// on quickstart, fig5 and chaos-resilience) at the canonical seed. Measured
/// identical at --jobs 1, 2 and 4.
constexpr uint64_t kTournamentScorecardPin = 6959546997517894393ull;
/// The tournament sweeps on at most this many workers, never more than nproc.
constexpr int kTournamentJobs = 4;
/// Untraced units timed at least, whatever --seconds says: p90 of 100
/// samples is the highest percentile with ten samples beyond it.
constexpr size_t kMinTimedUnits = 100;

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ms_between(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

/// Linear-interpolated percentile, p in [0, 1]. Empty input gives 0.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------- spans ---

/// One timed call into a layer. Spans of one unit share `unit`; `parent`
/// indexes the enclosing span (-1 for a unit's root).
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int parent;
  int unit;
};

/// In-memory span log; written out once, when the run ends.
class SpanLog {
 public:
  int begin(const char* name, int parent, int unit) {
    spans_.push_back(Span{name, now_ns(), 0, parent, unit});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<size_t>(id)].end_ns = now_ns(); }

  /// Durations (ms) of every span with this name.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(ms_between(s.start_ns, s.end_ns));
    }
    return out;
  }

  void write_csv(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    out << "id,parent,unit,name,start_ns,end_ns\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << ',' << s.parent << ',' << s.unit << ',' << s.name << ',' << s.start_ns << ','
          << s.end_ns << '\n';
    }
  }

 private:
  std::vector<Span> spans_;
};

/// Records a span for its lifetime when given a log; a no-op otherwise, so
/// the untraced path pays nothing.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, int parent, int unit)
      : log_(log), id_(log ? log->begin(name, parent, unit) : -1) {}
  ~Scope() {
    if (log_) log_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// ------------------------------------------------------- output checking ---

/// Accepts a digest when it equals the pin, or, without a pin, the first
/// digest this check saw.
class DigestCheck {
 public:
  explicit DigestCheck(std::optional<uint64_t> pin) : reference_(pin) {}
  bool accept(uint64_t digest) {
    if (!reference_) reference_ = digest;
    return digest == *reference_;
  }
  std::optional<uint64_t> reference() const { return reference_; }

 private:
  std::optional<uint64_t> reference_;
};

/// Exact per-unit counts read through ExperimentResult / TierTimeline.
struct LayerCounts {
  uint64_t events = 0;
  uint64_t completed = 0;
  uint64_t errors = 0;
  uint64_t timeouts = 0;
  uint64_t retries = 0;
  uint64_t actions = 0;
  uint64_t fault_log_entries = 0;
  uint64_t trace_sampled = 0;
  double vm_seconds = 0.0;      // scalable tiers (ExperimentResult::total_vm_seconds)
  double all_vm_seconds = 0.0;  // every tier: one monitoring sample per VM-second
  double mean_users = 0.0;
  double mean_in_flight = 0.0;         // summed over tiers
  double mean_server_concurrency = 0.0;  // per provisioned VM, over tiers
  int cells = 0;

  void add(const core::ExperimentConfig& config, const core::ExperimentResult& r) {
    events += r.events_dispatched;
    completed += r.completed;
    errors += r.errors;
    timeouts += r.timeouts;
    retries += r.retries;
    actions += r.actions.size();
    fault_log_entries += r.fault_log.size();
    if (r.trace_report) trace_sampled += r.trace_report->sampled;
    vm_seconds += r.total_vm_seconds;
    for (const double v : r.vm_seconds) all_vm_seconds += v;
    mean_users += config.workload.kind == core::WorkloadSpec::Kind::kTrace
                      ? config.workload.trace.mean_users()
                      : static_cast<double>(config.workload.users);
    double in_flight = 0.0;
    double per_server = 0.0;
    int tiers = 0;
    for (const core::TierTimeline& tier : r.tiers) {
      const auto conc = tier.concurrency.mean_series();
      const auto vms = tier.provisioned_vms.mean_series();
      double conc_sum = 0.0;
      double ratio_sum = 0.0;
      size_t ratio_n = 0;
      for (size_t i = 0; i < conc.size(); ++i) {
        conc_sum += conc[i].second;
        if (i < vms.size() && vms[i].second > 0.0) {
          ratio_sum += conc[i].second / vms[i].second;
          ++ratio_n;
        }
      }
      if (!conc.empty()) in_flight += conc_sum / static_cast<double>(conc.size());
      if (ratio_n > 0) {
        per_server += ratio_sum / static_cast<double>(ratio_n);
        ++tiers;
      }
    }
    mean_in_flight += in_flight;
    if (tiers > 0) mean_server_concurrency += per_server / tiers;
    ++cells;
  }

  /// Probe depth: users plus requests in flight, averaged over cells.
  size_t pending_depth() const {
    if (cells == 0) return 1;
    return std::max<size_t>(1, std::llround((mean_users + mean_in_flight) / cells));
  }
  int server_concurrency() const {
    if (cells == 0) return 1;
    return std::max(1, static_cast<int>(std::lround(mean_server_concurrency / cells)));
  }
};

// ------------------------------------------------------------ workloads ---

/// One benchmark workload. setup() is everything before the first call into
/// run_experiment / run_tournament; run_unit() is one unit of work and
/// returns the digest that unit is checked by.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  virtual uint64_t run_unit(SpanLog* spans, int unit) = 0;
  virtual std::optional<uint64_t> pin() const = 0;
  /// Simulated seconds one unit completes.
  virtual double sim_seconds() const = 0;
  /// run_experiment calls per unit.
  virtual int cells() const = 0;
  virtual int jobs() const { return 1; }
  /// Builds every base scenario once: registry lookup, strict parse,
  /// ExperimentConfig.
  virtual void build_scenarios() const = 0;
  /// Runs the unit's cells serially with a span around each, checking every
  /// cell against the last unit run; fills `counts` and returns the per-cell
  /// run times (ms). With `trace_off`, each cell runs with request tracing
  /// disabled instead, which must leave its digest unchanged.
  virtual std::vector<double> serial_cells(SpanLog* spans, int unit, bool trace_off,
                                           LayerCounts* counts) = 0;
};

/// The registered scenario, at root seed `seed` unless that is canonical.
scenario::Scenario seeded_scenario(const std::string& name, uint64_t seed) {
  scenario::Scenario s = scenario::get_scenario(name);
  if (seed != kCanonicalSeed) s.seed = seed;
  return s;
}

class ScenarioWorkload : public Workload {
 public:
  ScenarioWorkload(std::string name, uint64_t seed) : name_(std::move(name)), seed_(seed) {}

  void setup() override {
    scenario_ = seeded_scenario(name_, seed_);
    config_ = scenario_.experiment();
  }

  uint64_t run_unit(SpanLog* spans, int unit) override {
    const Scope root(spans, "unit", -1, unit);
    std::vector<scenario::SweepRun> runs(1);
    runs[0].scenario = scenario_;
    {
      const Scope s(spans, "core.run", root.id(), unit);
      runs[0].result = core::run_experiment(config_);
    }
    {
      const Scope s(spans, "scenario.digest", root.id(), unit);
      last_digest_ = scenario::result_digest(runs[0].result);
    }
    {
      const Scope s(spans, "scenario.report", root.id(), unit);
      std::ostringstream out;
      scenario::write_result_json(out, name_, runs);
    }
    return last_digest_;
  }

  std::optional<uint64_t> pin() const override {
    if (seed_ != kCanonicalSeed) return std::nullopt;
    return scenario::expected_result_digest(name_);
  }
  double sim_seconds() const override { return config_.duration_seconds; }
  int cells() const override { return 1; }

  void build_scenarios() const override { (void)seeded_scenario(name_, seed_).experiment(); }

  std::vector<double> serial_cells(SpanLog* spans, int unit, bool trace_off,
                                   LayerCounts* counts) override {
    core::ExperimentConfig config = config_;
    if (trace_off) config.trace.enabled = false;
    core::ExperimentResult result;
    const int64_t start = now_ns();
    {
      const Scope s(spans, trace_off ? "core.run.trace_off" : "core.run", -1, unit);
      result = core::run_experiment(config);
    }
    const double ms = ms_between(start, now_ns());
    if (scenario::result_digest(result) != last_digest_) {
      throw std::runtime_error(name_ + ": serial cell digest differs from the last unit's");
    }
    if (counts) counts->add(config, result);
    return {ms};
  }

 private:
  std::string name_;
  uint64_t seed_;
  scenario::Scenario scenario_;
  core::ExperimentConfig config_;
  uint64_t last_digest_ = 0;
};

/// A tournament scenario entry: a registry name or an INI path.
scenario::Scenario base_scenario(const std::string& name) {
  return scenario::has_scenario(name) ? scenario::get_scenario(name)
                                      : scenario::Scenario::load(name);
}

class TournamentWorkload : public Workload {
 public:
  explicit TournamentWorkload(uint64_t seed) : seed_(seed) {}

  /// At a non-canonical seed, quickstart and fig5 run at that root seed.
  /// run_tournament takes registry names or INI paths, and one seed override
  /// would reach every scenario, so the reseeded scenarios are INI files in
  /// the working directory. chaos-resilience keeps its registered
  /// fault schedule: across root seeds its cells' timeout counts span two
  /// orders of magnitude, and the tournament's peak memory follows them
  /// (see NOTES.md).
  void setup() override {
    const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    options_.jobs = std::min(kTournamentJobs, nproc);
    if (seed_ != kCanonicalSeed) {
      for (std::string& name : options_.scenarios) {
        if (name == "chaos-resilience") continue;
        const std::string path = name + "-seed" + std::to_string(seed_) + ".ini";
        const std::string text = seeded_scenario(name, seed_).to_text();
        // Written once per seed, so the set-up timed in later processes
        // reads the file as a user's INI path would, without creating it.
        std::ostringstream existing;
        existing << std::ifstream(path).rdbuf();
        if (existing.str() != text) {
          std::ofstream out(path);
          out << text;
          if (!out.flush()) throw std::runtime_error("cannot write " + path);
        }
        name = path;
      }
    }
    const size_t controllers = control::controller_names().size();
    sim_seconds_ = 0.0;
    for (const auto& name : options_.scenarios) {
      sim_seconds_ += base_scenario(name).duration_seconds * static_cast<double>(controllers);
    }
    cells_ = static_cast<int>(options_.scenarios.size() * controllers);
  }

  uint64_t run_unit(SpanLog* spans, int unit) override {
    const Scope root(spans, "unit", -1, unit);
    {
      const Scope s(spans, "scenario.tournament", root.id(), unit);
      last_ = scenario::run_tournament(options_);
    }
    uint64_t digest = 0;
    {
      const Scope s(spans, "scenario.digest", root.id(), unit);
      digest = scenario::scorecard_digest(last_);
    }
    {
      const Scope s(spans, "scenario.report", root.id(), unit);
      std::ostringstream out;
      scenario::write_tournament_json(out, last_);
    }
    return digest;
  }

  std::optional<uint64_t> pin() const override {
    if (seed_ != kCanonicalSeed) return std::nullopt;
    return kTournamentScorecardPin;
  }
  double sim_seconds() const override { return sim_seconds_; }
  int cells() const override { return cells_; }
  int jobs() const override { return options_.jobs; }

  void build_scenarios() const override {
    for (const auto& name : options_.scenarios) (void)base_scenario(name).experiment();
  }

  /// The tournament's cells as its sweeps plan them (expand_grid over
  /// controller.kind with a fixed seed), run one after another. Each cell's
  /// digest must equal that cell's digest in the last tournament unit.
  std::vector<double> serial_cells(SpanLog* spans, int unit, bool trace_off,
                                   LayerCounts* counts) override {
    std::vector<double> cell_ms;
    size_t cell_index = 0;
    for (const auto& name : options_.scenarios) {
      scenario::SweepPlan plan;
      plan.base = base_scenario(name);
      plan.seed_policy = scenario::SeedPolicy::kFixed;
      plan.axes.push_back(scenario::SweepAxis{"controller", "kind", control::controller_names()});
      for (const scenario::PlannedRun& planned : scenario::expand_grid(plan)) {
        core::ExperimentConfig config = planned.scenario.experiment();
        if (trace_off) config.trace.enabled = false;
        core::ExperimentResult result;
        const int64_t start = now_ns();
        {
          const Scope s(spans, trace_off ? "core.run.trace_off" : "core.run", -1, unit);
          result = core::run_experiment(config);
        }
        cell_ms.push_back(ms_between(start, now_ns()));
        if (cell_index >= last_.cells.size() ||
            scenario::result_digest(result) != last_.cells[cell_index].result_digest) {
          throw std::runtime_error("tournament: serial cell " + std::to_string(cell_index) +
                                   " does not match the tournament's cell digest");
        }
        ++cell_index;
        if (counts) counts->add(config, result);
      }
    }
    return cell_ms;
  }

 private:
  uint64_t seed_;
  scenario::TournamentOptions options_;
  double sim_seconds_ = 0.0;
  int cells_ = 0;
  scenario::Tournament last_;
};

std::unique_ptr<Workload> make_workload(const std::string& name, uint64_t seed) {
  if (name == "fig5-dcm") return std::make_unique<ScenarioWorkload>("fig5", seed);
  if (name == "diamond-traced") return std::make_unique<ScenarioWorkload>("diamond-cache", seed);
  if (name == "tournament") return std::make_unique<TournamentWorkload>(seed);
  throw std::invalid_argument("unknown workload: " + name +
                              " (known: fig5-dcm, diamond-traced, tournament)");
}

// --------------------------------------------------------------- probes ---

/// Median of `reps` timings of `fn`, each divided by `per` (ns per op).
template <typename F>
double probe_ns(int reps, uint64_t per, F&& fn) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const int64_t start = now_ns();
    fn();
    samples.push_back(static_cast<double>(now_ns() - start) / static_cast<double>(per));
  }
  return median(std::move(samples));
}

constexpr int kProbeReps = 5;
constexpr uint64_t kEngineProbeOps = 200'000;
constexpr uint64_t kPsProbeJobs = 100'000;

/// Fills an engine with `depth` far-future events, the pending set a run of
/// the workload carries.
void fill_pending(sim::Engine& engine, size_t depth) {
  for (size_t i = 0; i < depth; ++i) {
    engine.schedule_at(sim::from_seconds(1e6) + static_cast<sim::SimTime>(i), [] {});
  }
}

/// Engine::schedule_after followed by run_until that dispatches it.
double probe_schedule_dispatch(size_t depth) {
  return probe_ns(kProbeReps, kEngineProbeOps, [depth] {
    sim::Engine engine;
    fill_pending(engine, depth);
    uint64_t fired = 0;
    for (uint64_t i = 0; i < kEngineProbeOps; ++i) {
      engine.schedule_after(1000, [&fired] { ++fired; });
      engine.run_until(engine.now() + 1000);
    }
    if (fired != kEngineProbeOps) throw std::runtime_error("engine probe lost events");
  });
}

/// Engine::schedule_after followed by EventHandle::cancel.
double probe_schedule_cancel(size_t depth) {
  return probe_ns(kProbeReps, kEngineProbeOps, [depth] {
    sim::Engine engine;
    fill_pending(engine, depth);
    uint64_t fired = 0;
    for (uint64_t i = 0; i < kEngineProbeOps; ++i) {
      sim::EventHandle h = engine.schedule_after(1000 + static_cast<sim::SimTime>(i % 64),
                                                 [&fired] { ++fired; });
      h.cancel();
    }
    engine.run_until(sim::from_seconds(1.0));
    if (fired != 0) throw std::runtime_error("engine probe fired a cancelled event");
  });
}

/// CpuScheduler::submit driven to completion, with `concurrency` jobs kept in
/// flight on one app-tier server.
double probe_ps_job(int concurrency) {
  return probe_ns(kProbeReps, kPsProbeJobs, [concurrency] {
    sim::Engine engine;
    ntier::CpuScheduler cpu(engine, core::tomcat_cpu_model());
    const double work = cpu.config().params.s0;
    uint64_t submitted = 0;
    uint64_t done = 0;
    struct Chain {
      ntier::CpuScheduler* cpu;
      double work;
      uint64_t* submitted;
      uint64_t* done;
      void operator()() const {
        ++*done;
        if (*submitted < kPsProbeJobs) {
          ++*submitted;
          cpu->submit(work, Chain{cpu, work, submitted, done});
        }
      }
    };
    cpu.set_thread_count(concurrency);
    for (int i = 0; i < concurrency && submitted < kPsProbeJobs; ++i) {
      ++submitted;
      cpu.submit(work, Chain{&cpu, work, &submitted, &done});
    }
    engine.run_to_completion();
    if (done != kPsProbeJobs) throw std::runtime_error("PS probe lost jobs");
  });
}

/// Serialize a MetricSample, produce it, poll it, parse it — once per
/// VM-second of the workload.
double probe_bus_sample(uint64_t samples) {
  samples = std::max<uint64_t>(samples, 1);
  return probe_ns(kProbeReps, samples, [samples] {
    bus::Broker broker;
    broker.create_topic("metrics", bus::TopicConfig{4, 0});
    bus::Producer producer(broker);
    bus::Consumer consumer(broker, "controller", "metrics");
    uint64_t parsed = 0;
    for (uint64_t i = 0; i < samples; ++i) {
      ntier::MetricSample sample;
      sample.time = static_cast<sim::SimTime>(i) * sim::kNanosPerSecond;
      sample.server_id = "vm-" + std::to_string(i % 8);
      sample.tier = "tomcat";
      sample.depth = 1;
      sample.vm_state = "ACTIVE";
      sample.throughput = 40.0 + static_cast<double>(i % 17);
      sample.avg_response_time = 0.05;
      sample.concurrency = 12.5;
      sample.cpu_util = 0.7;
      sample.thread_pool_size = 200;
      sample.conn_pool_size = 40;
      producer.send("metrics", sample.server_id, sample.serialize(), sample.time);
      for (const bus::Record& record : consumer.poll()) {
        if (ntier::MetricSample::parse(record.value)) ++parsed;
      }
    }
    if (parsed != samples) throw std::runtime_error("bus probe lost samples");
  });
}

// ----------------------------------------------------------------- main ---

struct Options {
  std::string workload;
  uint64_t seed = kCanonicalSeed;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  bool one_unit = false;
  std::string spans_out;
};

Options parse_args(int argc, char** argv) {
  Options opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      opts.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      opts.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      opts.seconds = std::stod(value());
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      opts.trace = v == "1";
    } else if (arg == "--setup-only") {
      opts.setup_only = true;
    } else if (arg == "--one-unit") {
      opts.one_unit = true;
    } else if (arg == "--spans-out") {
      opts.spans_out = value();
    } else {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(opts.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return opts;
}

std::string compiler_name() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

bool is_release_build() {
#ifndef NDEBUG
  return false;
#else
  return std::string(PERFBENCH_BUILD_TYPE) == "Release";
#endif
}

/// VmHWM, the peak resident set of this process image. getrusage's
/// ru_maxrss is not used: Linux carries it across execve, so it can report
/// the spawning process's footprint instead.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

/// Accumulates {"name": {"value", "unit", "better"}} entries.
class MetricWriter {
 public:
  void add(const std::string& name, double value, const char* unit, const char* better) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + json_number(value) + ", \"unit\": \"" + unit +
             "\", \"better\": \"" + better + "\"}";
  }
  std::string json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Moves the calling thread to the next CPU of its allowed set, round robin.
/// Co-tenant load on a shared host differs from vCPU to vCPU and drifts over
/// seconds; a single-threaded loop left on one vCPU measures that vCPU's
/// neighbours, while rotating samples all of them in every run.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (pthread_getaffinity_np(pthread_self(), sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
      }
    }
  }
  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[next_++ % cpus_.size()], &set);
    if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) != 0) {
      throw std::runtime_error("cannot set CPU affinity");
    }
  }

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// Runs one unit under a check; a throw or a digest mismatch is a failure.
bool checked_unit(Workload& workload, DigestCheck& check, SpanLog* spans, int unit) {
  try {
    return check.accept(workload.run_unit(spans, unit));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: unit %d threw: %s\n", unit, e.what());
    return false;
  }
}

/// Negative control: a quickstart run checked against a pin it cannot
/// match must come out as a failed unit.
bool negative_control_fails() {
  ScenarioWorkload control("quickstart", kCanonicalSeed);
  control.setup();
  DigestCheck wrong_pin(*scenario::expected_result_digest("quickstart") ^ 1u);
  return !checked_unit(control, wrong_pin, nullptr, -1);
}

/// Per-layer numbers of a traced run. `untraced_ms` / `traced_ms` are the
/// unit walls of the alternating loop; `spans` holds the traced units. A
/// serial pass that throws or fails a digest check counts as a failed unit.
void layer_metrics(Workload& workload, SpanLog& spans, const std::vector<double>& untraced_ms,
                   const std::vector<double>& traced_ms, int& attempted, int& failed,
                   MetricWriter& metrics) {
  // Serial passes over the unit's cells, as registered and with request
  // tracing off, alternating. Every cell is digest-checked.
  const int reps = workload.cells() > 1 ? 2 : 5;
  LayerCounts counts;
  std::vector<double> cell_sum;
  std::vector<double> cell_max;
  std::vector<double> off_sum;
  for (int rep = 0; rep < reps; ++rep) {
    const int pass_unit = attempted++;
    try {
      const std::vector<double> on =
          workload.serial_cells(&spans, pass_unit, false, rep == 0 ? &counts : nullptr);
      const std::vector<double> off = workload.serial_cells(&spans, pass_unit, true, nullptr);
      cell_sum.push_back(sum(on));
      cell_max.push_back(*std::max_element(on.begin(), on.end()));
      off_sum.push_back(sum(off));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: serial pass failed: %s\n", e.what());
      ++failed;
    }
  }
  if (cell_sum.empty() || counts.cells == 0) throw std::runtime_error("no serial pass succeeded");

  for (int rep = 0; rep < 15; ++rep) {
    const Scope s(&spans, "scenario.build", -1, -1);
    workload.build_scenarios();
  }

  const double unit_ms = median(untraced_ms);
  const double cells_ms = median(cell_sum);
  const double events = static_cast<double>(counts.events);
  const double completed = static_cast<double>(counts.completed);

  metrics.add("scenario.build_ms", median(spans.durations("scenario.build")), "ms", "lower");
  metrics.add("scenario.digest_ms", median(spans.durations("scenario.digest")), "ms", "lower");
  metrics.add("scenario.report_ms", median(spans.durations("scenario.report")), "ms", "lower");
  metrics.add("scenario.cell_ms.sum", cells_ms, "ms", "lower");
  metrics.add("scenario.cell_ms.max", median(cell_max), "ms", "lower");
  metrics.add("scenario.sweep_idle_share", 1.0 - cells_ms / (workload.jobs() * unit_ms), "share",
              "lower");
  metrics.add("scenario.cells_per_s", workload.cells() / (unit_ms / 1e3), "1/s", "higher");
  metrics.add("core.run_ms", median(spans.durations("core.run")), "ms", "lower");
  metrics.add("core.host_ns_per_event", cells_ms * 1e6 / events, "ns", "lower");
  metrics.add("core.host_us_per_request", cells_ms * 1e3 / completed, "us", "lower");
  metrics.add("sim.events", events, "count", "lower");
  metrics.add("sim.events_per_request", events / completed, "count", "lower");
  metrics.add("sim.events_per_s", events / (cells_ms / 1e3), "1/s", "higher");
  metrics.add("sim.probe.schedule_dispatch_ns", probe_schedule_dispatch(counts.pending_depth()),
              "ns", "lower");
  metrics.add("sim.probe.schedule_cancel_ns", probe_schedule_cancel(counts.pending_depth()), "ns",
              "lower");
  metrics.add("sim.probe.pending_depth", static_cast<double>(counts.pending_depth()), "count",
              "lower");
  metrics.add("ntier.probe.ps_job_ns", probe_ps_job(counts.server_concurrency()), "ns", "lower");
  metrics.add("ntier.probe.concurrency", counts.server_concurrency(), "count", "lower");
  metrics.add("ntier.timeouts", static_cast<double>(counts.timeouts), "count", "lower");
  metrics.add("ntier.retries", static_cast<double>(counts.retries), "count", "lower");
  metrics.add("ntier.vm_seconds", counts.vm_seconds, "s", "lower");
  metrics.add("workload.completed", completed, "count", "higher");
  metrics.add("workload.errors", static_cast<double>(counts.errors), "count", "lower");
  metrics.add("control.actions", static_cast<double>(counts.actions), "count", "lower");
  metrics.add("fault.log_entries", static_cast<double>(counts.fault_log_entries), "count",
              "lower");
  metrics.add("bus.probe.sample_ns",
              probe_bus_sample(static_cast<uint64_t>(std::llround(counts.all_vm_seconds))), "ns",
              "lower");
  metrics.add("trace.sampled", static_cast<double>(counts.trace_sampled), "count", "higher");
  metrics.add("trace.overhead_share", cells_ms / median(off_sum) - 1.0, "share", "lower");
  metrics.add("bench.trace_overhead_share", median(traced_ms) / unit_ms - 1.0, "share", "lower");
}

int run(const Options& opts) {
  set_log_level(LogLevel::kError);
  if (!is_release_build()) {
    std::fprintf(stderr, "perfbench: refusing to report from a non-Release build (%s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  std::unique_ptr<Workload> workload = make_workload(opts.workload, opts.seed);
  workload->setup();
  const int64_t first_call = now_ns();
  if (opts.setup_only) {
    std::printf("{\"first_call_ns\": %lld}\n", static_cast<long long>(first_call));
    return 0;
  }

  DigestCheck check(workload->pin());
  if (opts.one_unit) {
    // Peak memory of a process that runs one unit, as a user's one-shot
    // `dcm_run` invocation does. A long-running loop's peak would instead
    // depend on how many units fit and on allocator arena reuse across
    // the tournament's worker threads.
    const bool ok = checked_unit(*workload, check, nullptr, 0);
    std::printf("{\"first_call_ns\": %lld, \"ok\": %s, \"digest\": \"%llu\", "
                "\"peak_rss_mb\": %s}\n",
                static_cast<long long>(first_call), ok ? "true" : "false",
                static_cast<unsigned long long>(check.reference().value_or(0)),
                json_number(peak_rss_mb()).c_str());
    return 0;
  }
  int attempted = 0;
  int failed = 0;
  // Only one-cell workloads rotate: the tournament's sweep workers inherit
  // the calling thread's affinity and must keep every CPU.
  CpuRotation rotation;
  auto unit = [&](SpanLog* spans) -> double {
    if (workload->jobs() == 1) rotation.next();
    const int64_t start = now_ns();
    const bool ok = checked_unit(*workload, check, spans, attempted);
    const double ms = ms_between(start, now_ns());
    ++attempted;
    if (!ok) ++failed;
    return ms;
  };

  // Warm-up unit: checked and counted, but not timed, so caches fill and
  // lazy set-up in the library finishes first.
  unit(nullptr);

  // --trace 0 runs past --seconds until kMinTimedUnits are timed, so that
  // wall_ms.p90 has ten samples beyond it, but never past 3 x --seconds.
  const int64_t start = now_ns();
  const int64_t deadline = start + static_cast<int64_t>(opts.seconds * 1e9);
  const int64_t hard_stop = start + static_cast<int64_t>(3 * opts.seconds * 1e9);
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  SpanLog spans;
  while (true) {
    const int64_t t = now_ns();
    const bool enough = opts.trace || untraced_ms.size() >= kMinTimedUnits;
    if (t >= deadline && enough) break;
    if (t >= hard_stop) {
      throw std::runtime_error("only " + std::to_string(untraced_ms.size()) +
                               " units timed; wall_ms.p90 needs " +
                               std::to_string(kMinTimedUnits) + ", raise --seconds");
    }
    untraced_ms.push_back(unit(nullptr));
    if (opts.trace) traced_ms.push_back(unit(&spans));
  }

  MetricWriter metrics;
  if (opts.trace) {
    layer_metrics(*workload, spans, untraced_ms, traced_ms, attempted, failed, metrics);
    if (!opts.spans_out.empty()) spans.write_csv(opts.spans_out);
  } else {
    // Throughput over every timed unit rather than a per-unit median: the
    // host's speed shifts between modes within a run, and a median jumps
    // between them where the total moves smoothly (see NOTES.md).
    metrics.add("sim_s_per_wall_s",
                workload->sim_seconds() * static_cast<double>(untraced_ms.size()) /
                    (sum(untraced_ms) / 1e3),
                "s/s", "higher");
    metrics.add("wall_ms.p50", percentile(untraced_ms, 0.5), "ms", "lower");
    metrics.add("wall_ms.p90", percentile(untraced_ms, 0.9), "ms", "lower");
  }

  const bool control_failed = negative_control_fails();
  const std::optional<uint64_t> digest = check.reference();
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"context\": {\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", \"lto\": %s}, "
      "\"first_call_ns\": %lld, \"attempted\": %d, \"failed\": %d, \"timed_units\": %zu, "
      "\"digest\": \"%llu\", \"digest_pinned\": %s, \"negative_control_failed\": %s, "
      "\"metrics\": %s}\n",
      opts.workload.c_str(), static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0,
      std::thread::hardware_concurrency(), compiler_name().c_str(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_LTO ? "true" : "false", static_cast<long long>(first_call), attempted, failed,
      untraced_ms.size(), static_cast<unsigned long long>(digest.value_or(0)),
      workload->pin() ? "true" : "false", control_failed ? "true" : "false",
      metrics.json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
