#include "model/concurrency_model.h"

#include <cmath>

#include "common/check.h"

namespace dcm::model {

double inflated_service_time(const ServiceTimeParams& p, double n) {
  DCM_DCHECK(n >= 1.0);
  return p.s0 + p.alpha * (n - 1.0) + p.beta * n * (n - 1.0);
}

double effective_service_time(const ServiceTimeParams& p, double n) {
  return inflated_service_time(p, n) / n;
}

double server_throughput(const ServiceTimeParams& p, double n) {
  return n / inflated_service_time(p, n);
}

double ConcurrencyModel::throughput(double n) const {
  return gamma * static_cast<double>(servers) * n /
         (visit_ratio * inflated_service_time(params, n));
}

double ConcurrencyModel::optimal_concurrency() const {
  if (params.beta <= 0.0 || params.s0 <= params.alpha) return 1.0;
  return std::sqrt((params.s0 - params.alpha) / params.beta);
}

int ConcurrencyModel::optimal_concurrency_int(int limit) const {
  DCM_CHECK(limit >= 1);
  int best = 1;
  double best_throughput = throughput(1.0);
  for (int n = 2; n <= limit; ++n) {
    const double x = throughput(static_cast<double>(n));
    if (x > best_throughput) {  // strict: ties keep the smaller n
      best_throughput = x;
      best = n;
    }
  }
  return best;
}

double ConcurrencyModel::max_throughput() const {
  if (params.beta <= 0.0 || params.s0 <= params.alpha) {
    // Degenerate: Eq. 7 is monotone increasing; no finite interior optimum.
    return throughput(1.0);
  }
  const double term = 2.0 * std::sqrt((params.s0 - params.alpha) * params.beta) + params.alpha -
                      params.beta;
  return gamma * static_cast<double>(servers) / (visit_ratio * term);
}

}  // namespace dcm::model
