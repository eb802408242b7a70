#include "ntier/server.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "ntier/tier.h"

namespace dcm::ntier {

Server::Server(sim::Engine& engine, ServerConfig config, int depth, Rng rng)
    : engine_(&engine),
      config_(std::move(config)),
      depth_(depth),
      rng_(rng),
      workers_(engine, config_.name, ".workers", config_.max_threads),
      cpu_(engine, config_.cpu) {
  DCM_CHECK(depth_ >= 0);
  DCM_CHECK(config_.pre_fraction >= 0.0 && config_.pre_fraction <= 1.0);
  if (config_.demand_cv > 0.0) {
    // Hoisted lognormal_mean_cv(1.0, cv) constants: same formulas, computed
    // once — per-visit draws keep only the Box–Muller normal and the exp.
    const double sigma2 = std::log(1.0 + config_.demand_cv * config_.demand_cv);
    demand_ln_mu_ = -0.5 * sigma2;  // log(mean)=log(1)=0 exactly
    demand_ln_sigma_ = std::sqrt(sigma2);
  }
}

void Server::set_out_edges(const std::vector<OutEdge>& edges) {
  DCM_CHECK_MSG(edges.size() <= kMaxFanOut, "a server has at most kMaxFanOut out-edges");
  out_edges_.clear();
  managed_pool_ = nullptr;
  out_edges_.reserve(edges.size());
  for (const auto& spec : edges) {
    DCM_CHECK(spec.target != nullptr);
    DCM_CHECK(spec.edge_id >= 0);
    Edge e;
    e.target = spec.target;
    e.edge_id = spec.edge_id;
    if (spec.pool_capacity > 0) {
      e.pool = std::make_unique<SlotPool>(*engine_, config_.name, ".conns", spec.pool_capacity);
    }
    if (spec.managed) {
      DCM_CHECK_MSG(e.pool != nullptr, "managed edge needs a connection pool");
      DCM_CHECK_MSG(managed_pool_ == nullptr, "at most one managed edge");
      managed_pool_ = e.pool.get();
    }
    out_edges_.push_back(std::move(e));
  }
}

// --- retry policy ----------------------------------------------------------

double RetryPolicy::backoff_delay(int attempt, Rng& rng) const {
  const double base = backoff_base_seconds * std::pow(backoff_multiplier, attempt);
  const double jitter =
      jitter_fraction > 0.0 ? 1.0 + jitter_fraction * (2.0 * rng.next_double() - 1.0) : 1.0;
  return std::max(0.0, base * jitter);
}

// --- request path ----------------------------------------------------------

void Server::free_visit(VisitHandle h) {
  VisitState& v = *visit(h);
  visits_.free(h);  // stale first: what the request and continuation own dies after
  v.request.reset();
  v.done = nullptr;
}

void Server::sync_thread_count() { cpu_.set_thread_count(workers_.in_use()); }

void Server::process(const RequestPtr& request, DoneFn done) {
  DCM_CHECK(request != nullptr);
  if (!online_ || workers_.queue_length() >= config_.max_queue) {
    ++rejected_;
    done(false);
    return;
  }
  const VisitHandle h = visits_.alloc();
  VisitState& v = *visit(h);
  v.visit_id = next_visit_id_++;
  v.request = request;
  v.done = std::move(done);
  v.arrived = engine_->now();
  v.demand = 0.0;
  v.holds_worker = false;
  v.branches.clear();
  v.branches_pending = 0;
  v.branch_failed = false;
  workers_.acquire([this, h] { on_worker_granted(h); });
}

void Server::on_worker_granted(VisitHandle h) {
  VisitState* v = visit(h);
  if (v == nullptr) return;  // crashed while queued
  if (trace::TraceContext* tr = v->request->trace.get()) {
    tr->add_span(trace::SpanKind::kPoolWait, depth_, v->arrived, engine_->now());
  }
  v->holds_worker = true;
  // start_visit reports the new busy-worker count fused with its CPU submit
  // (one advance/refresh/reschedule instead of two — same end state).
  start_visit(h);
}

void Server::begin_cpu_span(VisitState& visit, double work) {
  if (visit.request->trace == nullptr) return;
  visit.cpu_submitted = engine_->now();
  visit.cpu_work = work;
}

void Server::end_cpu_span(VisitState& visit) {
  trace::TraceContext* tr = visit.request->trace.get();
  if (tr == nullptr) return;
  const sim::SimTime now = engine_->now();
  const sim::SimTime nominal_end =
      std::min(now, visit.cpu_submitted + sim::from_seconds(visit.cpu_work));
  tr->add_span(trace::SpanKind::kService, depth_, visit.cpu_submitted, nominal_end,
               visit.cpu_work);
  // Anything past the nominal demand is run-queue wait / multithreading
  // inflation — the S*(N) − S0 share of the visit.
  if (now > nominal_end) tr->add_span(trace::SpanKind::kCpuWait, depth_, nominal_end, now);
}

void Server::start_visit(VisitHandle h) {
  VisitState* v = visit(h);
  const auto& req = *v->request;
  const double scale =
      req.demand_scale.size() > static_cast<size_t>(depth_)
          ? req.demand_scale[static_cast<size_t>(depth_)]
          : 1.0;
  const double variability =
      config_.demand_cv > 0.0 ? rng_.lognormal(demand_ln_mu_, demand_ln_sigma_) : 1.0;
  v->demand = config_.cpu.params.s0 * scale * variability;

  // One branch per out-edge, its calls read from the request's per-edge
  // plan. No calls at all (a leaf, or an all-zero plan) is the CPU-only shape.
  int total_calls = 0;
  for (const auto& e : out_edges_) {
    const int calls = req.downstream_calls.size() > static_cast<size_t>(e.edge_id)
                          ? req.downstream_calls[static_cast<size_t>(e.edge_id)]
                          : 0;
    v->branches.push_back(BranchScratch{calls, 0, 0});
    total_calls += calls;
  }
  const int busy_workers = workers_.in_use();
  if (total_calls == 0) {
    begin_cpu_span(*v, v->demand);
    cpu_.submit_with_thread_count(busy_workers, v->demand, [this, h] { on_cpu_done_finish(h); });
    return;
  }
  const double pre = v->demand * config_.pre_fraction;
  begin_cpu_span(*v, pre);
  cpu_.submit_with_thread_count(busy_workers, pre, [this, h] { on_cpu_done_downstream(h); });
}

void Server::on_cpu_done_finish(VisitHandle h) {
  VisitState* v = visit(h);
  if (v == nullptr) return;  // crash dropped this visit (and its CPU job)
  end_cpu_span(*v);
  finish_visit(h, true);
}

// --- downstream calls ------------------------------------------------------
//
// Every sub-request is an attempt in the attempt slab: the dispatch
// continuation captures [this, AttemptHandle] (16 bytes), so it stays inside
// std::function's inline buffer on every topology.

void Server::on_cpu_done_downstream(VisitHandle h) {
  VisitState* v = visit(h);
  if (v == nullptr) return;
  end_cpu_span(*v);
  int pending = 0;
  for (const auto& b : v->branches) {
    if (b.calls > 0) ++pending;
  }
  v->branches_pending = pending;
  // Count first, then issue: a branch that settles synchronously (downstream
  // rejects) decrements the full count and can never fire the join before
  // the remaining branches have been issued.
  const size_t branch_count = out_edges_.size();
  for (size_t i = 0; i < branch_count; ++i) {
    VisitState* vv = visit(h);
    if (vv == nullptr) return;
    if (vv->branches[i].calls > 0) start_call(h, static_cast<int>(i));
  }
}

void Server::start_call(VisitHandle h, int branch) {
  VisitState* v = visit(h);
  Edge& e = out_edges_[static_cast<size_t>(branch)];
  if (v->request->trace != nullptr) {
    v->branches[static_cast<size_t>(branch)].conn_requested = engine_->now();
  }
  if (e.pool) {
    e.pool->acquire([this, h, branch] { on_conn_granted(h, branch); });
  } else {
    dispatch_attempt(h, branch, /*attempt=*/0, /*conn_held=*/false);
  }
}

void Server::on_conn_granted(VisitHandle h, int branch) {
  VisitState* v = visit(h);
  if (v == nullptr) return;  // crashed while queued on the edge pool
  if (trace::TraceContext* tr = v->request->trace.get()) {
    tr->add_edge_span(trace::SpanKind::kConnWait, depth_,
                      out_edges_[static_cast<size_t>(branch)].edge_id,
                      v->branches[static_cast<size_t>(branch)].conn_requested,
                      engine_->now());
  }
  dispatch_attempt(h, branch, /*attempt=*/0, /*conn_held=*/true);
}

void Server::dispatch_attempt(VisitHandle h, int branch, int attempt_no, bool conn_held) {
  VisitState* v = visit(h);
  const AttemptHandle ah = attempts_.alloc();
  AttemptState& a = *attempts_.get(ah);
  a.visit = h;
  a.branch = branch;
  a.attempt = attempt_no;
  a.conn_held = conn_held;
  a.timeout = sim::EventHandle();
  if (v->request->trace != nullptr) a.started = engine_->now();
  out_edges_[static_cast<size_t>(branch)].target->dispatch(
      v->request, [this, ah](bool ok) { on_attempt_response(ah, ok); });
  // The dispatch can settle synchronously (downstream rejects) and even grow
  // the attempt slab via re-entry — refetch before arming the deadline.
  AttemptState* armed = attempts_.get(ah);
  if (retry_.timeout_seconds > 0.0 && armed != nullptr) {
    armed->timeout = engine_->schedule_after(sim::from_seconds(retry_.timeout_seconds),
                                             [this, ah] { on_attempt_timeout(ah); });
  }
}

void Server::on_attempt_response(AttemptHandle ah, bool ok) {
  AttemptState* live = attempts_.get(ah);
  if (live == nullptr) return;  // deadline already expired; drop late response
  live->timeout.cancel();
  const AttemptState a = *live;
  attempts_.free(ah);
  VisitState* v = visit(a.visit);
  if (v == nullptr) return;  // server crashed while the call was in flight
  if (trace::TraceContext* tr = v->request->trace.get()) {
    tr->add_edge_span(trace::SpanKind::kDownstream, depth_,
                      out_edges_[static_cast<size_t>(a.branch)].edge_id, a.started,
                      engine_->now());
  }
  on_subrequest_result(a, ok);
}

void Server::on_attempt_timeout(AttemptHandle ah) {
  AttemptState* live = attempts_.get(ah);
  if (live == nullptr) return;  // response won the race
  const AttemptState a = *live;
  attempts_.free(ah);  // the late response will find a stale handle
  VisitState* v = visit(a.visit);
  if (v == nullptr) return;
  ++subrequest_timeouts_;
  if (trace::TraceContext* tr = v->request->trace.get()) {
    tr->add_edge_span(trace::SpanKind::kTimeoutWait, depth_,
                      out_edges_[static_cast<size_t>(a.branch)].edge_id, a.started,
                      engine_->now());
  }
  on_subrequest_result(a, false);
}

void Server::on_subrequest_result(const AttemptState& settled, bool ok) {
  const VisitHandle h = settled.visit;
  const int branch = settled.branch;
  SlotPool* pool = out_edges_[static_cast<size_t>(branch)].pool.get();
  if (ok) {
    if (settled.conn_held) pool->release();
    // release() cannot free this visit (only its own continuations finish
    // it), but it can admit other traffic — refetch for safety.
    BranchScratch& b = visit(h)->branches[static_cast<size_t>(branch)];
    if (++b.index < b.calls) {
      start_call(h, branch);
      return;
    }
    settle_branch(h, /*ok=*/true);
    return;
  }
  const int attempt_no = settled.attempt;
  if (attempt_no < retry_.max_retries) {
    ++subrequest_retries_;
    // Exponential backoff with deterministic jitter; the connection stays
    // held across attempts (a blocked app thread keeps its pool slot).
    const double delay = retry_.backoff_delay(attempt_no, rng_);
    if (trace::TraceContext* tr = visit(h)->request->trace.get()) {
      tr->add_span(trace::SpanKind::kBackoff, depth_, engine_->now(),
                   engine_->now() + sim::from_seconds(delay));
    }
    const bool conn_held = settled.conn_held;
    engine_->schedule_after(sim::from_seconds(delay), [this, h, branch, attempt_no, conn_held] {
      if (visit(h) == nullptr) return;
      dispatch_attempt(h, branch, attempt_no + 1, conn_held);
    });
    return;
  }
  if (settled.conn_held) pool->release();
  settle_branch(h, /*ok=*/false);
}

void Server::settle_branch(VisitHandle h, bool ok) {
  VisitState* v = visit(h);
  if (v == nullptr) return;
  if (!ok) v->branch_failed = true;
  if (--v->branches_pending > 0) return;
  // Join: every branch settled. Fail-fast semantics resolved here so a
  // failed branch still waits for its siblings (their workers/pools drain
  // normally) before the visit fails.
  if (v->branch_failed) {
    finish_visit(h, false);
    return;
  }
  const double post = v->demand * (1.0 - config_.pre_fraction);
  begin_cpu_span(*v, post);
  cpu_.submit(post, [this, h] { on_cpu_done_finish(h); });
}

void Server::finish_visit(VisitHandle h, bool ok) {
  VisitState* v = visit(h);
  if (v == nullptr) return;
  if (ok) {
    ++completed_;
    response_time_sum_ += sim::to_seconds(engine_->now() - v->arrived);
  } else {
    ++rejected_;
  }
  DoneFn done = std::move(v->done);
  const bool held_worker = v->holds_worker;
  // Free before releasing the worker: the release can synchronously admit a
  // queued visit, which may reuse this very slot. The bumped generation is
  // what marks any continuation still holding `h` as stale.
  free_visit(h);
  if (held_worker) {
    workers_.release();
    sync_thread_count();
  }
  done(ok);
  if (workers_.in_use() == 0 && idle_callback_) {
    // Copy first: the callback may reset idle_callback_ (a draining VM
    // does), which must not destroy the std::function mid-execution.
    auto cb = idle_callback_;
    cb();
  }
}

void Server::crash() {
  ++epoch_;
  cpu_.abort_all();
  workers_.reset();
  for (auto& e : out_edges_) {
    if (e.pool) e.pool->reset();
  }
  cpu_.set_thread_count(0);

  // Fail every visit that was in flight or queued, in visit-id order (the
  // deterministic order the old id-keyed map iterated in). Freeing the slot
  // first makes every pre-crash continuation stale; firing done(false) here
  // is the only signal that runs.
  crash_scratch_.clear();
  visits_.for_each_live([this](VisitHandle h, const VisitState& v) {
    crash_scratch_.emplace_back(v.visit_id, h);
  });
  std::sort(crash_scratch_.begin(), crash_scratch_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& entry : crash_scratch_) {
    const VisitHandle h = entry.second;
    VisitState* v = visit(h);
    if (v == nullptr) continue;  // an earlier done(false) freed (or reused) it
    ++rejected_;
    DoneFn done = std::move(v->done);
    free_visit(h);
    if (done) done(false);
  }
  if (idle_callback_) {
    auto cb = idle_callback_;
    cb();
  }
}

void Server::set_thread_pool_size(int size) {
  workers_.resize(size);
  sync_thread_count();
}

void Server::set_downstream_connections(int size) {
  DCM_CHECK_MSG(managed_pool_ != nullptr, "server has no managed connection pool");
  managed_pool_->resize(size);
}

void Server::set_cpu_capacity_factor(double factor) {
  cpu_.set_capacity_factor(factor);
}

}  // namespace dcm::ntier
