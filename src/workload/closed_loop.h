// Closed-loop workload generators.
//
// Both of the paper's generators are closed loops over emulated users:
//   * JMeter training mode — zero think time, so the number of users *is*
//     the request-processing concurrency offered to the system (Sec. V-A).
//   * RUBBoS client mode — ~3 s mean think time between consecutive
//     requests of the same user (Sec. II-A).
// make_jmeter()/make_rubbos_clients() build the two against a servlet
// catalog, planning every request from the app's service graph
// (graph_request_factory); the ClosedLoopGenerator constructor takes any
// RequestFactory, which is the seam tests use for hand-built plans. The user
// count can be changed at runtime (set_user_count), which is what the trace
// player uses to emulate the revised RUBBoS client.
//
// The client is hop 0 of the request path and issues every request through
// one attempt mechanism, the one ntier::Server uses for its sub-requests:
// each attempt is a slot in a generation-counted sim::Slab, its response,
// deadline and backoff continuations capture [this, handle], and whichever
// of {response, deadline} settles the attempt frees the slot, so the loser
// finds a stale handle. Retries follow the same ntier::RetryPolicy and
// RetryPolicy::backoff_delay as the servers'. With the default policy (no
// deadline, no retries) no timer is armed and no jitter is drawn, and the
// steady-state issue path performs no heap allocation either way.
#pragma once

#include <functional>
#include <memory>

#include "common/rng.h"
#include "ntier/app.h"
#include "ntier/server.h"
#include "sim/slab.h"
#include "workload/client_stats.h"
#include "workload/servlet.h"

namespace dcm::trace {
class Tracer;
}

namespace dcm::workload {

/// Builds the next request a user issues. `arena` is the owning engine's
/// run-scoped arena (never null from the generators); factories should pass
/// it to make_request_context so per-request storage recycles instead of
/// hitting the global heap.
using RequestFactory = std::function<ntier::RequestPtr(sim::Arena* arena, uint64_t id,
                                                       Rng& rng, sim::SimTime now)>;

/// Factory deriving each request's plan from a service graph: one weighted
/// servlet draw (the request's only rng consumption), then per-node demand
/// scales assigned by node role (web/app/db map to the servlet's per-tier
/// scales, lb/cache nodes are 1.0) and per-edge call counts from the edge
/// spec (fixed, or the sampled servlet's query count for servlet-calls
/// edges). The catalog must outlive the factory; the graph's roles and edge
/// plans are copied into it.
RequestFactory graph_request_factory(const ServletCatalog& catalog,
                                     const ntier::ServiceGraph& graph);

struct ClosedLoopConfig {
  int users = 1;
  /// Mean of the exponential think time between a user's consecutive
  /// requests, in seconds; 0 = no think time.
  double mean_think_seconds = 0.0;
  /// New users start staggered uniformly over this span (avoids an
  /// artificial synchronised burst when ramping).
  sim::SimTime start_stagger = sim::kNanosPerSecond;
  uint64_t seed = 42;
};

class ClosedLoopGenerator {
 public:
  ClosedLoopGenerator(sim::Engine& engine, ntier::NTierApp& app, RequestFactory factory,
                      ClosedLoopConfig config);

  ClosedLoopGenerator(const ClosedLoopGenerator&) = delete;
  ClosedLoopGenerator& operator=(const ClosedLoopGenerator&) = delete;

  /// Begins issuing requests. Idempotent.
  void start();
  /// Parks all users after their in-flight request completes.
  void stop();

  /// Ramp the emulated user population up or down at runtime.
  void set_user_count(int users);
  int user_count() const { return target_users_; }
  int live_users() const { return live_users_; }

  /// Deadline/retry discipline applied to every request (resilience
  /// mechanism; default: one attempt, no deadline). Response time is
  /// measured from the first issue to the final success — what the user
  /// experienced. Set before start().
  void set_retry_policy(ntier::RetryPolicy policy) { retry_ = policy; }
  const ntier::RetryPolicy& retry_policy() const { return retry_; }

  /// Head-samples new requests through `tracer` (nullptr = tracing off, the
  /// default — the generator then issues byte-for-byte the same event
  /// sequence as before). Set before start().
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  ClientStats& stats() { return stats_; }
  const ClientStats& stats() const { return stats_; }

 private:
  /// One client attempt: everything its continuations need, so each of
  /// them captures only [this, handle].
  struct Attempt {
    int user = 0;
    ntier::RequestPtr request;
    int servlet = -1;
    sim::SimTime first_issued = 0;
    int attempt = 0;  // 0-based issue number
    sim::EventHandle deadline;
  };
  using AttemptHandle = sim::Slab<Attempt>::Handle;

  void spawn_user(int user_index, sim::SimTime initial_delay);
  /// `prior_think` is the think-time (seconds) the user just finished, so a
  /// newly sampled trace can record it as a leading kThink span; < 0 means
  /// "first request, no preceding think".
  void user_cycle(int user_index, double prior_think = -1.0);
  void issue_attempt(AttemptHandle h);
  void on_response(AttemptHandle h, bool ok);
  void on_deadline(AttemptHandle h);
  void on_attempt_failed(AttemptHandle h);
  void finish_cycle(int user_index);

  sim::Engine* engine_;
  ntier::NTierApp* app_;
  RequestFactory factory_;
  double mean_think_seconds_;
  sim::SimTime start_stagger_;
  Rng rng_;
  ntier::RetryPolicy retry_;
  trace::Tracer* tracer_ = nullptr;

  bool running_ = false;
  int target_users_ = 0;
  int live_users_ = 0;  // users currently looping (in-flight or thinking)
  int next_user_id_ = 0;
  sim::Slab<Attempt> attempts_;
  ClientStats stats_;
};

/// Zero-think-time generator: `users` == offered concurrency. Requests are
/// planned from `app.graph()`; the catalog must outlive the generator.
std::unique_ptr<ClosedLoopGenerator> make_jmeter(sim::Engine& engine, ntier::NTierApp& app,
                                                 const ServletCatalog& catalog, int users,
                                                 uint64_t seed = 42);

/// Realistic RUBBoS clients with exponential think time (default mean 3 s),
/// planned like make_jmeter.
std::unique_ptr<ClosedLoopGenerator> make_rubbos_clients(sim::Engine& engine,
                                                         ntier::NTierApp& app,
                                                         const ServletCatalog& catalog, int users,
                                                         double mean_think_seconds = 3.0,
                                                         uint64_t seed = 42);

}  // namespace dcm::workload
