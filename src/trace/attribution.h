// LatencyAttribution — folds sampled traces into the per-tier, per-cause
// waterfall the paper's Fig. 2/4 story needs: for each (tier, cause) pair,
// how many seconds requests sank there and what *share* of end-to-end
// latency that cause owned at the median and at the tail.
//
// Only leaf causes enter the fold (is_leaf_cause): pool-queue wait,
// connection-pool wait, CPU run-queue wait, nominal service, retry backoff
// and deadline waits. kDownstream spans are containers — the downstream
// tier's own leaf spans carry that wall-clock — and kThink precedes the
// request. Under retries a timed-out attempt's server-side spans still
// record, so cause shares can sum past 1 in storms; on a healthy run the
// leaf causes partition the latency up to scheduling gaps.
#pragma once

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/run_log.h"
#include "trace/tracer.h"

namespace dcm::trace {

struct AttributionRow {
  int tier = kClientTier;
  SpanKind cause = SpanKind::kPoolWait;
  uint64_t traces = 0;        // traces in which this cause appeared
  double total_seconds = 0.0;
  double mean_seconds = 0.0;  // mean over the traces it appeared in
  // Percentiles (nearest-rank) of this cause's share of its trace's
  // end-to-end latency, over the traces it appeared in.
  double p50_share = 0.0;
  double p95_share = 0.0;
  double p99_share = 0.0;
};

/// Per-edge waterfall over kDownstream container spans: how much wall-clock
/// each service-graph edge (identified by its declaration-order id) owned,
/// attributed to the issuing tier. Unlike the leaf-cause table, these rows
/// aggregate whole downstream subtrees, so sibling edges of a fan-out node
/// can be compared directly (which branch dominates the tail) while nested
/// edges along a path overlap by construction.
struct EdgeAttributionRow {
  int tier = kClientTier;  // issuing (upstream) tier
  int edge = kNoEdge;
  uint64_t traces = 0;
  double total_seconds = 0.0;
  double mean_seconds = 0.0;
  double p50_share = 0.0;
  double p95_share = 0.0;
  double p99_share = 0.0;
};

class LatencyAttribution {
 public:
  /// Folds one finalized successful trace (ignores anything else).
  void add(const TraceContext& trace);

  uint64_t trace_count() const { return trace_count_; }

  /// Rows sorted by (tier, cause) — a deterministic table.
  std::vector<AttributionRow> rows() const;

  /// Rows sorted by (tier, edge) — the per-edge waterfall.
  std::vector<EdgeAttributionRow> edge_rows() const;

 private:
  struct CauseAgg {
    std::vector<double> shares;  // per-trace share of end-to-end latency
    double total_seconds = 0.0;
  };

  uint64_t trace_count_ = 0;
  std::map<std::pair<int, int>, CauseAgg> causes_;  // (tier, SpanKind)
  std::map<std::pair<int, int>, CauseAgg> edges_;   // (tier, edge id)
};

/// The exported view of one run's tracing: counts, every finalized trace
/// (span streams in sampling order), the run's control/fault events as
/// annotations, and the folded attribution table.
struct TraceReport {
  TraceSpec spec;
  uint64_t sampled = 0;    // contexts handed out
  uint64_t finalized = 0;  // settled before the run ended
  uint64_t completed = 0;  // finalized with ok=true
  std::vector<std::shared_ptr<const TraceContext>> traces;  // finalized only
  std::vector<sim::RunEvent> annotations;  // the run log, in record order
  std::vector<AttributionRow> attribution;
  std::vector<EdgeAttributionRow> edge_attribution;
};

/// Builds the report from everything the tracer collected, annotated with
/// the run's event log.
std::shared_ptr<const TraceReport> build_report(const Tracer& tracer,
                                                std::vector<sim::RunEvent> run_log);

}  // namespace dcm::trace
