// The paper's concurrency-aware model (Sec. III).
//
// Service time with N threads (Eq. 5):   S*(N) = S0 + α(N−1) + βN(N−1)
// Effective per-request time (Eq. 6):    S(N)  = S*(N) / N
// System max throughput (Eq. 7):         X(N)  = γ·K·N / S*(N)
// Optimal concurrency (Sec. III-C):      N_b   = sqrt((S0 − α) / β)
// Peak throughput (Eq. 8):  Max(X) = γK / (V·(2√((S0−α)β) + α − β))
#pragma once

namespace dcm::model {

/// Per-server multithreading parameters (seconds).
struct ServiceTimeParams {
  double s0 = 0.0;     // single-threaded service time
  double alpha = 0.0;  // linear thread-contention coefficient
  double beta = 0.0;   // quadratic crosstalk/coherency coefficient

  bool valid() const { return s0 > 0.0 && alpha >= 0.0 && beta >= 0.0; }

  bool operator==(const ServiceTimeParams&) const = default;
};

/// Eq. 5 — total service time experienced by one request at concurrency n.
double inflated_service_time(const ServiceTimeParams& p, double n);

/// Eq. 6 — effective average service time (S*(n)/n).
double effective_service_time(const ServiceTimeParams& p, double n);

/// Per-server throughput at concurrency n: n / S*(n) (Eq. 7 with γ=K=1).
double server_throughput(const ServiceTimeParams& p, double n);

/// The full concurrency-aware throughput model of one tier.
struct ConcurrencyModel {
  ServiceTimeParams params;
  double gamma = 1.0;       // multi-server linearity correction (Eq. 4)
  int servers = 1;          // K_b
  double visit_ratio = 1.0;  // V_b (sub-requests per HTTP request)

  bool operator==(const ConcurrencyModel&) const = default;

  /// Eq. 7 — predicted system throughput when each server of this tier runs
  /// at concurrency n.
  double throughput(double n) const;

  /// Continuous optimizer N_b = sqrt((S0−α)/β). Requires β>0 and S0>α;
  /// returns 1.0 when the closed form degenerates (monotone curve).
  double optimal_concurrency() const;

  /// Best integer per-server concurrency in [1, limit] by direct argmax of
  /// Eq. 7 (ties to the smaller value). This is what the APP-agent deploys.
  int optimal_concurrency_int(int limit = 4096) const;

  /// Eq. 8 — throughput at the optimum.
  double max_throughput() const;
};

}  // namespace dcm::model
