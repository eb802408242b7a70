#include "workload/closed_loop.h"

#include "common/check.h"
#include "trace/tracer.h"

namespace dcm::workload {

RequestFactory graph_request_factory(const ServletCatalog& catalog,
                                     const ntier::ServiceGraph& graph) {
  struct EdgePlan {
    int fixed_calls = 0;
    bool servlet_calls = false;
  };
  std::vector<ntier::NodeRole> roles;
  roles.reserve(graph.node_count());
  for (size_t i = 0; i < graph.node_count(); ++i) roles.push_back(graph.node(i).role);
  std::vector<EdgePlan> edges;
  edges.reserve(graph.edge_count());
  for (size_t i = 0; i < graph.edge_count(); ++i) {
    edges.push_back({graph.edge(i).fixed_calls, graph.edge(i).servlet_calls});
  }
  return [&catalog, roles = std::move(roles), edges = std::move(edges)](
             sim::Arena* arena, uint64_t id, Rng& rng, sim::SimTime now) {
    // One weighted draw: the request's single rng consumption.
    const size_t servlet_index = catalog.sample(rng);
    const Servlet& s = catalog.servlet(servlet_index);
    auto req = ntier::make_request_context(arena);
    req->id = id;
    req->servlet = static_cast<int>(servlet_index);
    req->created = now;
    for (const ntier::NodeRole role : roles) {
      double scale = 1.0;
      switch (role) {
        case ntier::NodeRole::kWeb: scale = s.web_scale; break;
        case ntier::NodeRole::kApp: scale = s.app_scale; break;
        case ntier::NodeRole::kDb: scale = s.db_scale; break;
        case ntier::NodeRole::kLb:
        case ntier::NodeRole::kCache: scale = 1.0; break;
      }
      req->demand_scale.push_back(scale);
    }
    for (const EdgePlan& e : edges) {
      req->downstream_calls.push_back(e.servlet_calls ? s.db_queries : e.fixed_calls);
    }
    return req;
  };
}

ClosedLoopGenerator::ClosedLoopGenerator(sim::Engine& engine, ntier::NTierApp& app,
                                         RequestFactory factory, ClosedLoopConfig config)
    : engine_(&engine),
      app_(&app),
      factory_(std::move(factory)),
      mean_think_seconds_(config.mean_think_seconds),
      start_stagger_(config.start_stagger),
      rng_(config.seed),
      target_users_(config.users) {
  DCM_CHECK(config.users >= 0);
  DCM_CHECK(mean_think_seconds_ >= 0.0);
  DCM_CHECK(start_stagger_ >= 0);
  DCM_CHECK(factory_ != nullptr);
}

void ClosedLoopGenerator::start() {
  if (running_) return;
  running_ = true;
  while (live_users_ < target_users_) {
    spawn_user(next_user_id_++, rng_.uniform_int(0, start_stagger_));
  }
}

void ClosedLoopGenerator::stop() { running_ = false; }

void ClosedLoopGenerator::set_user_count(int users) {
  DCM_CHECK(users >= 0);
  target_users_ = users;
  if (!running_) return;
  // Deficit: spawn staggered newcomers. Excess: loops park themselves at
  // their next cycle boundary (see user_cycle).
  while (live_users_ < target_users_) {
    spawn_user(next_user_id_++, rng_.uniform_int(0, start_stagger_));
  }
}

void ClosedLoopGenerator::spawn_user(int user_index, sim::SimTime initial_delay) {
  ++live_users_;
  engine_->schedule_after(initial_delay, [this, user_index] { user_cycle(user_index); });
}

void ClosedLoopGenerator::user_cycle(int user_index, double prior_think) {
  if (!running_ || live_users_ > target_users_) {
    --live_users_;
    return;
  }
  const sim::SimTime issued = engine_->now();
  auto request = factory_(&engine_->arena(), app_->next_request_id(), rng_, issued);
  const int servlet = request->servlet;
  if (tracer_ != nullptr) {
    request->trace = tracer_->maybe_sample(request->id, servlet, issued);
    if (request->trace != nullptr && prior_think > 0.0) {
      request->trace->add_span(trace::SpanKind::kThink, trace::kClientTier,
                               issued - sim::from_seconds(prior_think), issued,
                               prior_think);
    }
  }
  const AttemptHandle h = attempts_.alloc();
  Attempt& a = *attempts_.get(h);
  a.user = user_index;
  a.request = std::move(request);
  a.servlet = servlet;
  a.first_issued = issued;
  a.attempt = 0;
  a.deadline = sim::EventHandle();
  issue_attempt(h);
}

void ClosedLoopGenerator::issue_attempt(AttemptHandle h) {
  const Attempt& a = *attempts_.get(h);
  if (trace::TraceContext* tr = a.request->trace.get()) tr->attempts = a.attempt + 1;
  // Submit a copy of the pointer: the app can settle the attempt
  // synchronously (a rejection), which frees the slot mid-submit.
  const ntier::RequestPtr request = a.request;
  app_->submit(request, [this, h](bool ok) { on_response(h, ok); });
  Attempt* armed = attempts_.get(h);
  if (retry_.timeout_seconds > 0.0 && armed != nullptr) {
    armed->deadline = engine_->schedule_after(sim::from_seconds(retry_.timeout_seconds),
                                              [this, h] { on_deadline(h); });
  }
}

void ClosedLoopGenerator::on_response(AttemptHandle h, bool ok) {
  Attempt* a = attempts_.get(h);
  if (a == nullptr) return;  // deadline already expired; drop late response
  a->deadline.cancel();
  if (!ok) {
    on_attempt_failed(h);
    return;
  }
  const sim::SimTime now = engine_->now();
  stats_.record_completion(now, sim::to_seconds(now - a->first_issued), a->servlet);
  if (trace::TraceContext* tr = a->request->trace.get()) tr->finalize(now, true);
  a->request.reset();
  const int user = a->user;
  attempts_.free(h);
  finish_cycle(user);
}

void ClosedLoopGenerator::on_deadline(AttemptHandle h) {
  Attempt* a = attempts_.get(h);
  if (a == nullptr) return;  // response won the race
  const sim::SimTime now = engine_->now();
  stats_.record_timeout(now);
  if (trace::TraceContext* tr = a->request->trace.get()) {
    tr->add_span(trace::SpanKind::kTimeoutWait, trace::kClientTier,
                 now - sim::from_seconds(retry_.timeout_seconds), now);
  }
  on_attempt_failed(h);
}

void ClosedLoopGenerator::on_attempt_failed(AttemptHandle h) {
  Attempt settled = std::move(*attempts_.get(h));
  attempts_.free(h);  // the late response (or deadline) finds a stale handle
  trace::TraceContext* tr = settled.request->trace.get();
  const sim::SimTime now = engine_->now();
  if (settled.attempt >= retry_.max_retries) {
    stats_.record_error(now);
    if (tr != nullptr) tr->finalize(now, false);
    finish_cycle(settled.user);
    return;
  }
  stats_.record_retry();
  const double delay = retry_.backoff_delay(settled.attempt, rng_);
  if (tr != nullptr) {
    tr->add_span(trace::SpanKind::kBackoff, trace::kClientTier, now,
                 now + sim::from_seconds(delay));
  }
  // The retry is a new attempt in a new slot (the free list hands back the
  // one just freed, under a new generation).
  ++settled.attempt;
  settled.deadline = sim::EventHandle();
  const AttemptHandle next = attempts_.alloc();
  *attempts_.get(next) = std::move(settled);
  engine_->schedule_after(sim::from_seconds(delay), [this, next] { issue_attempt(next); });
}

void ClosedLoopGenerator::finish_cycle(int user_index) {
  // Always reschedule through the engine — a zero think time must not
  // recurse synchronously.
  const double think = mean_think_seconds_ > 0.0 ? rng_.exponential(mean_think_seconds_) : 0.0;
  engine_->schedule_after(sim::from_seconds(think),
                          [this, user_index, think] { user_cycle(user_index, think); });
}

std::unique_ptr<ClosedLoopGenerator> make_jmeter(sim::Engine& engine, ntier::NTierApp& app,
                                                 const ServletCatalog& catalog, int users,
                                                 uint64_t seed) {
  ClosedLoopConfig config;
  config.users = users;
  config.seed = seed;
  return std::make_unique<ClosedLoopGenerator>(
      engine, app, graph_request_factory(catalog, app.graph()), std::move(config));
}

std::unique_ptr<ClosedLoopGenerator> make_rubbos_clients(sim::Engine& engine,
                                                         ntier::NTierApp& app,
                                                         const ServletCatalog& catalog, int users,
                                                         double mean_think_seconds,
                                                         uint64_t seed) {
  ClosedLoopConfig config;
  config.users = users;
  config.mean_think_seconds = mean_think_seconds;
  config.seed = seed;
  return std::make_unique<ClosedLoopGenerator>(
      engine, app, graph_request_factory(catalog, app.graph()), std::move(config));
}

}  // namespace dcm::workload
