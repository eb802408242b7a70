// One component server (Apache / Tomcat / MySQL instance).
//
// A visit holds a worker-pool slot for its entire lifetime (CPU phases plus
// downstream waits — a blocked Tomcat thread still occupies maxThreads and
// still contributes multithreading overhead, which is why over-sized pools
// hurt).
//
// Downstream calls have one route. A server owns 0..kMaxFanOut out-edges
// (set_out_edges), each with an optional caller-side connection pool; a visit
// runs one branch per out-edge. Calls within a branch are sequential,
// branches run concurrently, and the post-CPU phase starts only after every
// branch settles (synchronous join); any branch failure fails the visit once
// the others drain. A chain hop is simply a one-branch visit. Every call on
// a branch is one or more attempts under the server's RetryPolicy — the same
// policy type, and the same backoff, the clients apply to hop 0. The default
// policy is a zero budget (no deadline, no retry), which arms no timer and
// draws no jitter.
//
// Hot-path storage: visits and call attempts live in generation-counted
// sim::Slabs owned by the server, not in per-visit shared_ptrs. The
// continuation handed to Tier::dispatch (a std::function DoneFn) captures
// [this, AttemptHandle] — 16 bytes, inside its inline buffer — and the
// others are small sim::EventFn captures, so the steady-state request path
// performs no heap allocation on any topology. A freed slot bumps its
// generation, which makes every outstanding handle stale: a response after
// its deadline, or any continuation of a visit crash() freed, finds nothing
// and does nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/inline_vec.h"
#include "common/rng.h"
#include "metrics/welford.h"
#include "ntier/request.h"
#include "ntier/server_config.h"
#include "ntier/slot_pool.h"
#include "sim/engine.h"
#include "sim/slab.h"

namespace dcm::ntier {

class Tier;  // downstream dispatch target

/// One out-edge of a server (see Server::set_out_edges).
struct OutEdge {
  Tier* target = nullptr;
  int edge_id = 0;        // service-graph edge id (indexes downstream_calls)
  int pool_capacity = 0;  // >0: per-server caller-side connection pool
  bool managed = false;   // pool resized by set_downstream_connections
};

/// Deadline + bounded retry for one hop's calls: a client's requests (hop 0)
/// or a server's inter-tier sub-requests. All fields are per-attempt. The
/// default is a zero budget: one attempt per call, no deadline timer, no
/// jitter draw.
struct RetryPolicy {
  double timeout_seconds = 0.0;  // 0 = no deadline
  int max_retries = 0;
  double backoff_base_seconds = 0.05;
  double backoff_multiplier = 2.0;
  double jitter_fraction = 0.2;

  /// Delay before re-issuing after failed attempt `attempt` (0-based):
  /// backoff_base · multiplier^attempt, jittered ±jitter_fraction by one
  /// draw from the caller's own deterministic `rng` — drawn only when
  /// jitter_fraction > 0.
  double backoff_delay(int attempt, Rng& rng) const;
};

class Server {
 public:
  Server(sim::Engine& engine, ServerConfig config, int depth, Rng rng);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Wires the server's out-edges (0..kMaxFanOut; none = leaf), replacing
  /// any previous set — call it while no visit is in flight. An edge's id
  /// indexes the request's downstream_calls plan and stamps its
  /// kConnWait/kDownstream spans. Edges with pool_capacity > 0 get a
  /// per-server connection pool; the managed edge's pool (at most one) is
  /// what connection_pool()/set_downstream_connections operate on.
  void set_out_edges(const std::vector<OutEdge>& edges);

  /// Processes one visit; `done(ok)` fires at visit completion (ok=false if
  /// rejected here or anywhere downstream — a failed sub-request fails the
  /// whole visit).
  void process(const RequestPtr& request, DoneFn done);

  // --- soft-resource actuation (APP-agent) ---
  void set_thread_pool_size(int size);
  void set_downstream_connections(int size);

  /// Deadline/retry discipline for inter-tier sub-requests (resilience
  /// mechanism; the tier propagates one policy to all its servers).
  void set_subrequest_retry(RetryPolicy policy) { retry_ = policy; }
  const RetryPolicy& subrequest_retry() const { return retry_; }
  uint64_t subrequest_timeouts() const { return subrequest_timeouts_; }
  uint64_t subrequest_retries() const { return subrequest_retries_; }

  /// Failure injection: abrupt crash. Every in-flight and queued visit
  /// fails (done(false) fires for each), pools are force-freed, and CPU
  /// work is dropped. Responses from downstream calls that were pending at
  /// crash time are ignored when they arrive. The server object remains
  /// usable (a restarted process) — callers decide whether to re-register
  /// it with a balancer.
  void crash();
  bool crashed_since_start() const { return epoch_ > 0; }

  /// Dead-process switch: an offline server refuses every visit immediately
  /// (done(false), counted as rejected). `Vm::fail()` flips this so a
  /// silently-crashed VM left in a balancer fails requests fast instead of
  /// serving them — health checks and retries are what recover from it.
  void set_online(bool online) { online_ = online; }
  bool online() const { return online_; }

  // --- observability ---
  const std::string& name() const { return config_.name; }
  int depth() const { return depth_; }
  int in_flight() const { return workers_.in_use(); }
  int queue_length() const { return workers_.queue_length(); }
  int thread_pool_size() const { return workers_.capacity(); }
  int downstream_connection_limit() const {
    const SlotPool* p = connection_pool();
    return p ? p->capacity() : 0;
  }
  int downstream_connections_in_use() const {
    const SlotPool* p = connection_pool();
    return p ? p->in_use() : 0;
  }

  uint64_t completed() const { return completed_; }
  uint64_t rejected() const { return rejected_; }
  /// Sum of visit response times (seconds) — arrival to completion.
  double response_time_sum() const { return response_time_sum_; }
  /// ∫ busy-workers dt — time-weighted concurrency.
  double concurrency_integral() const { return workers_.in_use_integral(); }
  /// ∫ CPU-utilisation dt.
  double cpu_util_integral() const { return cpu_.util_integral(); }

  const SlotPool& worker_pool() const { return workers_; }
  /// The pool set_downstream_connections resizes: the managed edge's pool,
  /// or nullptr when no edge is managed.
  const SlotPool* connection_pool() const { return managed_pool_; }
  const CpuScheduler& cpu() const { return cpu_; }

  /// Fault injection: scales this server's CPU capacity (1.0 = healthy,
  /// 0.25 = a VM degraded to a quarter of its speed).
  void set_cpu_capacity_factor(double factor);

  /// Invoked whenever in_flight returns to zero (used by draining VMs).
  void set_idle_callback(std::function<void()> cb) { idle_callback_ = std::move(cb); }

 private:
  /// Per-branch progress of a visit (one branch per out-edge). Branch calls
  /// are sequential within the branch, branches concurrent with each other,
  /// so each needs its own call cursor and tracing scratch.
  struct BranchScratch {
    int calls = 0;  // sub-requests this visit issues on the edge
    int index = 0;  // current call
    sim::SimTime conn_requested = 0;
  };

  struct VisitState {
    uint64_t visit_id = 0;
    RequestPtr request;
    DoneFn done;
    sim::SimTime arrived = 0;
    double demand = 0.0;  // sampled total CPU demand for this visit
    bool holds_worker = false;

    // Join state.
    InlineVec<BranchScratch, kMaxFanOut> branches;
    int branches_pending = 0;
    bool branch_failed = false;

    // CPU tracing scratch (written only when request->trace is non-null; the
    // visit's CPU phases are strictly sequential, so one slot suffices).
    sim::SimTime cpu_submitted = 0;
    double cpu_work = 0.0;
  };
  using VisitHandle = sim::Slab<VisitState>::Handle;

  /// One attempt of one call on a branch. Exactly one of {downstream
  /// response, deadline expiry} settles the attempt by freeing its slot;
  /// whichever loses the race finds a stale handle and becomes a no-op, so
  /// a visit can never complete (or release a connection) twice.
  struct AttemptState {
    VisitHandle visit;
    int branch = 0;
    int attempt = 0;
    bool conn_held = false;
    sim::SimTime started = 0;  // tracing scratch
    sim::EventHandle timeout;
  };
  using AttemptHandle = sim::Slab<AttemptState>::Handle;

  /// Resolves a visit handle (nullptr if stale). The pointer is invalidated
  /// by a new visit's alloc (slab growth) — refetch after any call that can
  /// admit one.
  VisitState* visit(VisitHandle h) { return visits_.get(h); }
  /// Releases the visit's request and continuation, then frees its slot.
  void free_visit(VisitHandle h);

  void on_worker_granted(VisitHandle h);
  void start_visit(VisitHandle h);
  void on_cpu_done_finish(VisitHandle h);      // CPU-only / post phase done
  void on_cpu_done_downstream(VisitHandle h);  // pre phase done: issue branches
  void start_call(VisitHandle h, int branch);
  void on_conn_granted(VisitHandle h, int branch);
  void dispatch_attempt(VisitHandle h, int branch, int attempt, bool conn_held);
  void on_attempt_response(AttemptHandle ah, bool ok);
  void on_attempt_timeout(AttemptHandle ah);
  void on_subrequest_result(const AttemptState& settled, bool ok);
  void settle_branch(VisitHandle h, bool ok);
  void finish_visit(VisitHandle h, bool ok);
  void begin_cpu_span(VisitState& visit, double work);
  void end_cpu_span(VisitState& visit);
  void sync_thread_count();

  sim::Engine* engine_;
  ServerConfig config_;
  int depth_;
  Rng rng_;
  // Precomputed lognormal(1.0, demand_cv) parameters (see constructor).
  double demand_ln_mu_ = 0.0;
  double demand_ln_sigma_ = 0.0;

  SlotPool workers_;
  CpuScheduler cpu_;
  /// Installed out-edge with its optional per-server pool.
  struct Edge {
    Tier* target = nullptr;
    int edge_id = 0;
    std::unique_ptr<SlotPool> pool;
  };
  std::vector<Edge> out_edges_;
  SlotPool* managed_pool_ = nullptr;  // the managed edge's pool
  RetryPolicy retry_;

  uint64_t completed_ = 0;
  uint64_t rejected_ = 0;
  uint64_t subrequest_timeouts_ = 0;
  uint64_t subrequest_retries_ = 0;
  double response_time_sum_ = 0.0;
  bool online_ = true;
  std::function<void()> idle_callback_;

  uint64_t epoch_ = 0;  // crash count (crashed_since_start)
  uint64_t next_visit_id_ = 0;

  sim::Slab<VisitState> visits_;
  sim::Slab<AttemptState> attempts_;
  std::vector<std::pair<uint64_t, VisitHandle>> crash_scratch_;  // (visit_id, visit)
};

}  // namespace dcm::ntier
