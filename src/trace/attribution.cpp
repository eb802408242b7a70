#include "trace/attribution.h"

#include <algorithm>
#include <utility>

namespace dcm::trace {
namespace {

// Nearest-rank percentile over an already-sorted sample vector.
double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t n = sorted.size();
  const double rank = q * static_cast<double>(n);
  size_t index = static_cast<size_t>(rank);
  if (static_cast<double>(index) < rank) ++index;  // ceil
  if (index == 0) index = 1;
  if (index > n) index = n;
  return sorted[index - 1];
}

}  // namespace

void LatencyAttribution::add(const TraceContext& trace) {
  if (!trace.finalized || !trace.ok) return;
  const double total = sim::to_seconds(trace.finished - trace.started);
  if (total <= 0.0) return;
  ++trace_count_;

  // Sum this trace's seconds per (tier, leaf cause) first, then fold each
  // cause's share exactly once per trace.
  std::map<std::pair<int, int>, double> per_cause;
  std::map<std::pair<int, int>, double> per_edge;
  for (const Span& span : trace.spans) {
    const double seconds = sim::to_seconds(span.end - span.start);
    if (seconds <= 0.0) continue;
    if (is_leaf_cause(span.kind)) {
      per_cause[{span.tier, static_cast<int>(span.kind)}] += seconds;
    }
    // The edge waterfall folds kDownstream containers — one per issued
    // call, stamped with the issuing tier and the graph edge id.
    if (span.kind == SpanKind::kDownstream && span.edge != kNoEdge) {
      per_edge[{span.tier, span.edge}] += seconds;
    }
  }
  for (const auto& [key, seconds] : per_cause) {
    CauseAgg& agg = causes_[key];
    agg.shares.push_back(seconds / total);
    agg.total_seconds += seconds;
  }
  for (const auto& [key, seconds] : per_edge) {
    CauseAgg& agg = edges_[key];
    agg.shares.push_back(seconds / total);
    agg.total_seconds += seconds;
  }
}

std::vector<AttributionRow> LatencyAttribution::rows() const {
  std::vector<AttributionRow> rows;
  rows.reserve(causes_.size());
  for (const auto& [key, agg] : causes_) {
    AttributionRow row;
    row.tier = key.first;
    row.cause = static_cast<SpanKind>(key.second);
    row.traces = static_cast<uint64_t>(agg.shares.size());
    row.total_seconds = agg.total_seconds;
    row.mean_seconds =
        agg.shares.empty() ? 0.0 : agg.total_seconds / static_cast<double>(agg.shares.size());
    std::vector<double> sorted = agg.shares;
    std::sort(sorted.begin(), sorted.end());
    row.p50_share = percentile_sorted(sorted, 0.50);
    row.p95_share = percentile_sorted(sorted, 0.95);
    row.p99_share = percentile_sorted(sorted, 0.99);
    rows.push_back(row);
  }
  return rows;
}

std::vector<EdgeAttributionRow> LatencyAttribution::edge_rows() const {
  std::vector<EdgeAttributionRow> rows;
  rows.reserve(edges_.size());
  for (const auto& [key, agg] : edges_) {
    EdgeAttributionRow row;
    row.tier = key.first;
    row.edge = key.second;
    row.traces = static_cast<uint64_t>(agg.shares.size());
    row.total_seconds = agg.total_seconds;
    row.mean_seconds =
        agg.shares.empty() ? 0.0 : agg.total_seconds / static_cast<double>(agg.shares.size());
    std::vector<double> sorted = agg.shares;
    std::sort(sorted.begin(), sorted.end());
    row.p50_share = percentile_sorted(sorted, 0.50);
    row.p95_share = percentile_sorted(sorted, 0.95);
    row.p99_share = percentile_sorted(sorted, 0.99);
    rows.push_back(row);
  }
  return rows;
}

std::shared_ptr<const TraceReport> build_report(const Tracer& tracer,
                                                std::vector<sim::RunEvent> run_log) {
  auto report = std::make_shared<TraceReport>();
  report->spec = tracer.spec();
  report->sampled = tracer.sampled();
  report->annotations = std::move(run_log);

  LatencyAttribution attribution;
  for (const auto& context : tracer.traces()) {
    if (!context->finalized) continue;
    ++report->finalized;
    if (context->ok) ++report->completed;
    report->traces.push_back(context);
    attribution.add(*context);
  }
  report->attribution = attribution.rows();
  report->edge_attribution = attribution.edge_rows();
  return report;
}

}  // namespace dcm::trace
