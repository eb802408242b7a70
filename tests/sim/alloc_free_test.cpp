// Asserts the simulator hot path is allocation-free at steady state.
//
// This TU replaces the global operator new/delete with counting forwarders
// (binary-wide, which is why the assertions measure deltas around tight
// regions rather than absolute counts). Once the event heap and slab have
// grown to the working-set size, schedule/dispatch, cancellation, and
// periodic re-arming must not touch the heap at all.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "core/topologies.h"
#include "ntier/app.h"
#include "ntier/request.h"
#include "sim/engine.h"
#include "workload/closed_loop.h"

namespace {
std::atomic<uint64_t> g_alloc_count{0};

uint64_t allocations() { return g_alloc_count.load(std::memory_order_relaxed); }
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const size_t a = static_cast<size_t>(align);
  const size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace dcm::sim {
namespace {

TEST(AllocationFreeTest, SteadyStateScheduleDispatchDoesNotAllocate) {
  Engine engine;
  uint64_t fired = 0;
  uint64_t* fired_ptr = &fired;
  SimTime t = 0;
  // Warm-up: grow the heap vector and slot slab to working-set size.
  for (int i = 0; i < 512; ++i) {
    engine.schedule_at(++t, [fired_ptr] { ++*fired_ptr; });
    engine.run_until(t);
  }
  const uint64_t before = allocations();
  for (int i = 0; i < 20000; ++i) {
    engine.schedule_at(++t, [fired_ptr] { ++*fired_ptr; });
    engine.run_until(t);
  }
  EXPECT_EQ(allocations(), before);
  EXPECT_EQ(fired, 20512u);
}

TEST(AllocationFreeTest, SteadyStateCancelCycleDoesNotAllocate) {
  Engine engine;
  uint64_t fired = 0;
  uint64_t* fired_ptr = &fired;
  SimTime t = 0;
  auto cycle = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      // A deep-ish pending set with half the events cancelled before firing.
      std::array<EventHandle, 32> handles;
      for (size_t k = 0; k < handles.size(); ++k) {
        handles[k] = engine.schedule_at(t + static_cast<SimTime>(k) + 1,
                                        [fired_ptr] { ++*fired_ptr; });
      }
      for (size_t k = 0; k < handles.size(); k += 2) handles[k].cancel();
      t += static_cast<SimTime>(handles.size());
      engine.run_until(t);
    }
  };
  cycle(64);  // warm-up
  const uint64_t before = allocations();
  cycle(1000);
  EXPECT_EQ(allocations(), before);
  EXPECT_EQ(fired, (64u + 1000u) * 16u);
}

TEST(AllocationFreeTest, PeriodicReArmDoesNotAllocate) {
  Engine engine;
  uint64_t ticks = 0;
  uint64_t* ticks_ptr = &ticks;
  auto handle = engine.schedule_periodic(10, [ticks_ptr] { ++*ticks_ptr; });
  engine.run_until(1000);  // warm-up
  const uint64_t before = allocations();
  engine.run_until(101000);
  EXPECT_EQ(allocations(), before);
  EXPECT_EQ(ticks, 10100u);
  handle.cancel();
}

TEST(AllocationFreeTest, ExactCapacityCaptureIsAllocationFree) {
  Engine engine;
  std::array<char, EventFn::kInlineCapacity> payload{};
  engine.schedule_at(1, [payload] { (void)payload; });
  engine.run_until(1);  // warm the slab slot
  const uint64_t before = allocations();
  for (SimTime t = 2; t < 100; ++t) {
    engine.schedule_at(t, [payload] { (void)payload; });
    engine.run_until(t);
  }
  EXPECT_EQ(allocations(), before);
}

TEST(AllocationFreeTest, ThreeTierRoundTripIsAllocationFreeAtSteadyState) {
  // End-to-end pin on the request-slab/arena refactor: once the event slab,
  // the per-server visit slabs, and the request arena have grown to the
  // working set, a full web → app → db round trip (request construction,
  // worker/connection admission, CPU spans on all three tiers, and the
  // response path back) must not touch the global allocator.
  // The driver captures a single pointer so its own DoneFn stays inside
  // std::function's SBO — the test must not allocate on its own behalf.
  struct Driver {
    Engine& engine;
    ntier::NTierApp& app;
    uint64_t completed = 0;
    uint64_t issued = 0;
    void issue() {
      ntier::RequestPtr request = ntier::make_request_context(&engine.arena());
      request->id = ++issued;
      request->created = engine.now();
      request->demand_scale = {1.0, 1.0, 1.0};
      request->downstream_calls = {1, 2, 0};  // 1 AJP call, 2 DB queries
      app.submit(request, [this](bool ok) {
        EXPECT_TRUE(ok);
        ++completed;
        if (issued < 1200) issue();
      });
    }
  };
  Engine engine;
  ntier::NTierApp app(engine, core::build_service_graph({}, {1, 1, 1}, {1000, 100, 80}),
                      /*seed=*/1);
  Driver driver{engine, app};
  driver.issue();  // sequential round trips: each completion issues the next
  engine.run_until(sim::from_seconds(5.0));
  // ~115 sequential trips complete in 5 sim-seconds — more than enough to
  // grow every slab to the working set (concurrency is 1 throughout).
  ASSERT_GE(driver.completed, 100u) << "warm-up did not complete";
  const uint64_t before = allocations();
  engine.run_to_completion();
  EXPECT_EQ(allocations(), before)
      << "steady-state request round trips allocated";
  EXPECT_EQ(driver.completed, 1200u);
}

TEST(AllocationFreeTest, FanOutRoundTripIsAllocationFreeAtSteadyState) {
  // The fan-out/join twin of the three-tier pin: web → app, then app fans out
  // to a cache and, through its managed connection pool, to a db. Branch
  // calls run concurrently and join before the app's post-CPU phase; once
  // the slabs are warm none of it may touch the global allocator.
  struct Driver {
    Engine& engine;
    ntier::NTierApp& app;
    uint64_t completed = 0;
    uint64_t issued = 0;
    void issue() {
      ntier::RequestPtr request = ntier::make_request_context(&engine.arena());
      request->id = ++issued;
      request->created = engine.now();
      request->demand_scale = {1.0, 1.0, 1.0, 1.0};
      request->downstream_calls = {1, 1, 2};  // web→app, app→cache, 2 app→db
      app.submit(request, [this](bool ok) {
        EXPECT_TRUE(ok);
        ++completed;
        if (issued < 1200) issue();
      });
    }
  };
  const core::TopologySpec spec{core::TopologySpec::Kind::kGraph,
                                {{"web", "web"}, {"app", "app"}, {"cache", "cache"}, {"db", "db"}},
                                {{"web", "app", 1, false, false},
                                 {"app", "cache", 1, false, false},
                                 {"app", "db", 2, false, true}}};
  Engine engine;
  ntier::NTierApp app(engine, core::build_service_graph(spec, {1, 1, 1}, {1000, 100, 80}),
                      /*seed=*/1);
  ASSERT_NE(app.tier(1).vms()[0]->server().connection_pool(), nullptr);
  Driver driver{engine, app};
  driver.issue();
  engine.run_until(sim::from_seconds(5.0));
  ASSERT_GE(driver.completed, 100u) << "warm-up did not complete";
  const uint64_t before = allocations();
  engine.run_to_completion();
  EXPECT_EQ(allocations(), before)
      << "steady-state fan-out round trips allocated";
  EXPECT_EQ(driver.completed, 1200u);
}

TEST(AllocationFreeTest, ClientRetryRoundTripIsAllocationFreeAtSteadyState) {
  // The client half of the one attempt mechanism: JMeter users on a 1/1/1
  // chain with the client's deadline and retries armed, and the servers'
  // sub-request deadline and retry armed too. Every client attempt is a
  // slab slot whose continuations capture [this, handle], so once the
  // slabs are warm, issuing, arming the deadline and settling allocate
  // nothing.
  Engine engine;
  ntier::NTierApp app(engine, core::build_service_graph({}, {1, 1, 1}, {1000, 100, 80}),
                      /*seed=*/1);
  ntier::RetryPolicy sub_retry;
  sub_retry.timeout_seconds = 1.0;
  sub_retry.max_retries = 1;
  sub_retry.backoff_base_seconds = 0.05;
  app.tier(0).set_subrequest_retry(sub_retry);
  app.tier(1).set_subrequest_retry(sub_retry);
  const workload::ServletCatalog catalog = workload::ServletCatalog::browse_only_mix();
  auto generator = workload::make_jmeter(engine, app, catalog, /*users=*/4);
  ntier::RetryPolicy client_retry;
  client_retry.timeout_seconds = 2.0;
  client_retry.max_retries = 2;
  client_retry.backoff_base_seconds = 0.25;
  generator->set_retry_policy(client_retry);
  generator->start();
  // The client's per-second series add one bucket per sim-second: warmed to
  // 17 s they hold 18 buckets in a 32-slot vector, so the measured window
  // [17, 31) s grows them without a reallocation.
  engine.run_until(from_seconds(17.0));
  const uint64_t warm = generator->stats().completed();
  ASSERT_GE(warm, 100u) << "warm-up did not complete";
  const uint64_t before = allocations();
  engine.run_until(from_seconds(31.0));
  EXPECT_EQ(allocations(), before) << "steady-state client attempts allocated";
  EXPECT_GT(generator->stats().completed(), warm + 100);
  EXPECT_EQ(generator->stats().errors(), 0u);
}

TEST(AllocationFreeTest, OversizedCapturesHeapBoxButStillWork) {
  Engine engine;
  std::array<char, EventFn::kInlineCapacity + 16> big{};
  big[0] = 9;
  int out = 0;
  const uint64_t before = allocations();
  engine.schedule_at(1, [big, &out] { out = big[0]; });
  EXPECT_GT(allocations(), before);  // boxed: capture exceeds SBO budget
  engine.run_until(1);
  EXPECT_EQ(out, 9);
}

}  // namespace
}  // namespace dcm::sim
