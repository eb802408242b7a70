// Online concurrency-model estimation.
//
// The paper determines model parameters "via online monitoring of the whole
// system, then regress based on the measured system throughput and the
// thread allocation" (Sec. III-C). This estimator bins the per-second
// (concurrency, throughput) samples of one tier's servers by integer
// concurrency and, once the bins span a wide enough concurrency range,
// refits Eq. 7 in normalized form (γ = 1 — the optimum N_b is invariant to
// the γ/(S0,α,β) scaling, see model::Trainer).
//
// Bins are sliding windows over the most recent samples rather than
// unbounded accumulators: after a regime change (VM flavor swap, cache
// warmup, co-tenant interference) stale pre-change samples age out of the
// window instead of permanently biasing the fit.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "model/trainer.h"

namespace dcm::control {

struct EstimatorConfig {
  int min_bins = 8;            // distinct concurrency levels required
  double min_spread = 3.0;     // max/min concurrency ratio required
  int min_samples_per_bin = 2;
  double min_r_squared = 0.80;  // reject fits worse than this
  int window_per_bin = 64;      // most-recent samples a bin remembers

  bool operator==(const EstimatorConfig&) const = default;
};

/// Mean over a fixed-capacity ring of the most recent samples.
class WindowedMeanBin {
 public:
  explicit WindowedMeanBin(size_t capacity);

  void add(double x);
  double mean() const;
  /// Samples currently inside the window.
  uint64_t count() const { return size_; }

 private:
  std::vector<double> ring_;
  size_t capacity_;
  size_t size_ = 0;
  size_t head_ = 0;  // next write position
  double sum_ = 0.0;
};

class OnlineModelEstimator {
 public:
  explicit OnlineModelEstimator(EstimatorConfig config = {});

  /// Feeds one per-second server sample. Idle samples (concurrency < ~1) and
  /// zero-throughput samples at nonzero concurrency (stalled measurement
  /// intervals — no completions is not a throughput observation) are
  /// rejected: neither carries signal about the concurrency-throughput curve.
  void observe(double concurrency, double throughput);

  bool ready() const;
  size_t bin_count() const;

  /// Attempts a fit; nullopt when not ready or the fit is poor. The
  /// returned model carries servers/visit_ratio for context only — N_b is
  /// the value the DCM controller consumes.
  std::optional<model::TrainedModel> fit(int servers, double visit_ratio) const;

 private:
  EstimatorConfig config_;
  std::map<int, WindowedMeanBin> bins_;  // rounded concurrency -> recent throughput
};

}  // namespace dcm::control
