// Unit tests for the tracing primitives: deterministic head sampling,
// TraceContext finalize semantics, the latency-attribution fold, and the
// report's run-log annotations.
#include <gtest/gtest.h>

#include <memory>

#include "sim/engine.h"
#include "sim/time.h"
#include "trace/attribution.h"
#include "trace/trace.h"
#include "trace/tracer.h"

namespace dcm::trace {
namespace {

using sim::from_seconds;

// Records one control event into the engine's run log at sim time `t`.
void record_at(sim::Engine& engine, double t, const char* kind, const char* detail) {
  engine.schedule_at(from_seconds(t), [&engine, kind, detail] {
    engine.record(sim::EventSource::kControl, "app", kind, detail);
  });
}

TEST(TracerTest, DisabledNeverSamples) {
  Tracer tracer(42, TraceSpec{/*enabled=*/false, /*rate=*/1.0});
  for (uint64_t id = 0; id < 100; ++id) {
    EXPECT_FALSE(tracer.should_sample(id));
    EXPECT_EQ(tracer.maybe_sample(id, 0, 0), nullptr);
  }
  EXPECT_EQ(tracer.sampled(), 0u);
}

TEST(TracerTest, RateOneSamplesEveryRequest) {
  Tracer tracer(42, TraceSpec{true, 1.0});
  for (uint64_t id = 0; id < 100; ++id) EXPECT_TRUE(tracer.should_sample(id));
}

TEST(TracerTest, RateZeroSamplesNothing) {
  Tracer tracer(42, TraceSpec{true, 0.0});
  for (uint64_t id = 0; id < 100; ++id) EXPECT_FALSE(tracer.should_sample(id));
}

TEST(TracerTest, SamplingIsAPureFunctionOfSeedAndId) {
  Tracer a(7, TraceSpec{true, 0.5});
  Tracer b(7, TraceSpec{true, 0.5});
  for (uint64_t id = 0; id < 1000; ++id) {
    EXPECT_EQ(a.should_sample(id), b.should_sample(id)) << "id " << id;
    // Repeated queries on the same tracer answer the same.
    EXPECT_EQ(a.should_sample(id), a.should_sample(id));
  }
}

TEST(TracerTest, SampleFractionTracksRate) {
  Tracer tracer(11, TraceSpec{true, 0.25});
  int hits = 0;
  const int n = 20000;
  for (uint64_t id = 0; id < static_cast<uint64_t>(n); ++id) {
    if (tracer.should_sample(id)) ++hits;
  }
  const double fraction = static_cast<double>(hits) / n;
  EXPECT_NEAR(fraction, 0.25, 0.02);
}

TEST(TracerTest, DifferentSeedsPickDifferentRequests) {
  Tracer a(1, TraceSpec{true, 0.5});
  Tracer b(2, TraceSpec{true, 0.5});
  int differing = 0;
  for (uint64_t id = 0; id < 1000; ++id) {
    if (a.should_sample(id) != b.should_sample(id)) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(TracerTest, MaybeSampleRegistersAndKeepsContextsAlive) {
  Tracer tracer(42, TraceSpec{true, 1.0});
  auto ctx = tracer.maybe_sample(17, /*servlet=*/3, from_seconds(1.0));
  ASSERT_NE(ctx, nullptr);
  EXPECT_EQ(ctx->request_id, 17u);
  EXPECT_EQ(ctx->servlet, 3);
  EXPECT_EQ(ctx->started, from_seconds(1.0));
  EXPECT_EQ(tracer.sampled(), 1u);
  ASSERT_EQ(tracer.traces().size(), 1u);
  EXPECT_EQ(tracer.traces()[0].get(), ctx.get());
}

TEST(TracerTest, AnnotationsRecordInOrder) {
  Tracer tracer(42, TraceSpec{true, 1.0});
  sim::Engine engine;
  record_at(engine, 9.0, "scale_out", "provisioned=2");
  record_at(engine, 5.0, "set_stp", "stp=20");
  engine.run_until(from_seconds(10.0));

  const auto report = build_report(tracer, engine.run_log());
  ASSERT_EQ(report->annotations.size(), 2u);
  EXPECT_EQ(report->annotations[0].kind, "set_stp");
  EXPECT_EQ(report->annotations[0].at, from_seconds(5.0));
  EXPECT_EQ(report->annotations[1].detail, "provisioned=2");
  EXPECT_EQ(report->annotations[1].at, from_seconds(9.0));
}

TEST(TraceContextTest, FinalizeStopsSpanRecording) {
  TraceContext ctx;
  ctx.add_span(SpanKind::kPoolWait, 1, from_seconds(1.0), from_seconds(2.0));
  EXPECT_EQ(ctx.spans.size(), 1u);
  ctx.finalize(from_seconds(3.0), /*success=*/true);
  EXPECT_TRUE(ctx.finalized);
  EXPECT_TRUE(ctx.ok);
  EXPECT_EQ(ctx.finished, from_seconds(3.0));
  // Late responses from settled attempts still try to record — dropped.
  ctx.add_span(SpanKind::kService, 1, from_seconds(3.0), from_seconds(4.0));
  EXPECT_EQ(ctx.spans.size(), 1u);
}

TEST(TraceContextTest, FinalizeIsIdempotent) {
  TraceContext ctx;
  ctx.finalize(from_seconds(2.0), true);
  ctx.finalize(from_seconds(9.0), false);  // must not overwrite
  EXPECT_EQ(ctx.finished, from_seconds(2.0));
  EXPECT_TRUE(ctx.ok);
}

TEST(SpanKindTest, NamesAreStable) {
  EXPECT_STREQ(span_kind_name(SpanKind::kThink), "think");
  EXPECT_STREQ(span_kind_name(SpanKind::kLbPick), "lb_pick");
  EXPECT_STREQ(span_kind_name(SpanKind::kPoolWait), "pool_wait");
  EXPECT_STREQ(span_kind_name(SpanKind::kConnWait), "conn_wait");
  EXPECT_STREQ(span_kind_name(SpanKind::kService), "service");
  EXPECT_STREQ(span_kind_name(SpanKind::kCpuWait), "cpu_wait");
  EXPECT_STREQ(span_kind_name(SpanKind::kDownstream), "downstream");
  EXPECT_STREQ(span_kind_name(SpanKind::kBackoff), "backoff");
  EXPECT_STREQ(span_kind_name(SpanKind::kTimeoutWait), "timeout_wait");
}

TEST(SpanKindTest, LeafCausesExcludeContainersAndMarkers) {
  EXPECT_TRUE(is_leaf_cause(SpanKind::kPoolWait));
  EXPECT_TRUE(is_leaf_cause(SpanKind::kConnWait));
  EXPECT_TRUE(is_leaf_cause(SpanKind::kService));
  EXPECT_TRUE(is_leaf_cause(SpanKind::kCpuWait));
  EXPECT_TRUE(is_leaf_cause(SpanKind::kBackoff));
  EXPECT_TRUE(is_leaf_cause(SpanKind::kTimeoutWait));
  EXPECT_FALSE(is_leaf_cause(SpanKind::kThink));      // precedes the request
  EXPECT_FALSE(is_leaf_cause(SpanKind::kLbPick));     // zero-width marker
  EXPECT_FALSE(is_leaf_cause(SpanKind::kDownstream));  // container
}

// One trace: 1 s total, 0.6 s app-tier pool wait, 0.4 s app-tier service.
// kDownstream / kLbPick / kThink spans must not contribute rows.
TEST(AttributionTest, FoldsLeafCausesIntoShares) {
  TraceContext ctx;
  ctx.started = from_seconds(10.0);
  ctx.add_span(SpanKind::kThink, kClientTier, from_seconds(8.0), from_seconds(10.0));
  ctx.add_span(SpanKind::kLbPick, 0, from_seconds(10.0), from_seconds(10.0), 2.0);
  ctx.add_span(SpanKind::kDownstream, 0, from_seconds(10.0), from_seconds(11.0));
  ctx.add_span(SpanKind::kPoolWait, 1, from_seconds(10.0), from_seconds(10.6));
  ctx.add_span(SpanKind::kService, 1, from_seconds(10.6), from_seconds(11.0), 0.4);
  ctx.finalize(from_seconds(11.0), true);

  LatencyAttribution attribution;
  attribution.add(ctx);
  EXPECT_EQ(attribution.trace_count(), 1u);

  const auto rows = attribution.rows();
  ASSERT_EQ(rows.size(), 2u);  // only the two leaf causes
  // Sorted by (tier, cause): pool_wait before service at tier 1.
  EXPECT_EQ(rows[0].tier, 1);
  EXPECT_EQ(rows[0].cause, SpanKind::kPoolWait);
  EXPECT_EQ(rows[0].traces, 1u);
  EXPECT_NEAR(rows[0].total_seconds, 0.6, 1e-9);
  EXPECT_NEAR(rows[0].mean_seconds, 0.6, 1e-9);
  EXPECT_NEAR(rows[0].p50_share, 0.6, 1e-9);
  EXPECT_NEAR(rows[0].p99_share, 0.6, 1e-9);
  EXPECT_EQ(rows[1].cause, SpanKind::kService);
  EXPECT_NEAR(rows[1].p50_share, 0.4, 1e-9);
}

TEST(AttributionTest, IgnoresUnfinalizedAndFailedTraces) {
  LatencyAttribution attribution;

  TraceContext open;  // never settled
  open.started = 0;
  open.add_span(SpanKind::kService, 0, 0, from_seconds(1.0));
  attribution.add(open);

  TraceContext failed;
  failed.started = 0;
  failed.add_span(SpanKind::kService, 0, 0, from_seconds(1.0));
  failed.finalize(from_seconds(1.0), /*success=*/false);
  attribution.add(failed);

  EXPECT_EQ(attribution.trace_count(), 0u);
  EXPECT_TRUE(attribution.rows().empty());
}

TEST(AttributionTest, NearestRankTailPicksTheWorstTrace) {
  LatencyAttribution attribution;
  // 9 traces with a 10% pool-wait share, one with a 90% share.
  for (int i = 0; i < 10; ++i) {
    const double wait = (i == 9) ? 0.9 : 0.1;
    TraceContext ctx;
    ctx.started = 0;
    ctx.add_span(SpanKind::kPoolWait, 0, 0, from_seconds(wait));
    ctx.add_span(SpanKind::kService, 0, from_seconds(wait), from_seconds(1.0));
    ctx.finalize(from_seconds(1.0), true);
    attribution.add(ctx);
  }
  const auto rows = attribution.rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].cause, SpanKind::kPoolWait);
  EXPECT_NEAR(rows[0].p50_share, 0.1, 1e-9);
  EXPECT_NEAR(rows[0].p99_share, 0.9, 1e-9);
}

TEST(AttributionTest, ReportOverlaysAnnotationsOntoTraces) {
  Tracer tracer(3, TraceSpec{true, 1.0});
  auto ctx = tracer.maybe_sample(1, 0, from_seconds(10.0));
  ASSERT_NE(ctx, nullptr);
  ctx->add_span(SpanKind::kService, 0, from_seconds(10.0), from_seconds(12.0));
  ctx->finalize(from_seconds(12.0), true);
  sim::Engine engine;
  record_at(engine, 5.0, "set_stp", "before the trace");
  record_at(engine, 11.0, "scale_out", "inside the trace");
  record_at(engine, 20.0, "watchdog_freeze", "after the trace");
  engine.run_until(from_seconds(30.0));

  auto report = build_report(tracer, engine.run_log());
  EXPECT_EQ(report->sampled, 1u);
  EXPECT_EQ(report->finalized, 1u);
  EXPECT_EQ(report->completed, 1u);
  ASSERT_EQ(report->traces.size(), 1u);
  EXPECT_EQ(report->annotations.size(), 3u);
}

TEST(AttributionTest, ReportCountsUnfinishedTracesAsSampledOnly) {
  Tracer tracer(3, TraceSpec{true, 1.0});
  auto done = tracer.maybe_sample(1, 0, 0);
  done->finalize(from_seconds(1.0), true);
  auto failed = tracer.maybe_sample(2, 0, 0);
  failed->finalize(from_seconds(1.0), false);
  tracer.maybe_sample(3, 0, 0);  // still in flight when the run ends

  auto report = build_report(tracer, {});
  EXPECT_EQ(report->sampled, 3u);
  EXPECT_EQ(report->finalized, 2u);
  EXPECT_EQ(report->completed, 1u);
  EXPECT_EQ(report->traces.size(), 2u);  // finalized only
}

}  // namespace
}  // namespace dcm::trace
