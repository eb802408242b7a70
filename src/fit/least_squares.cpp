#include "fit/least_squares.h"

#include "common/check.h"

namespace dcm::fit {

double r_squared(const std::vector<double>& observed, const std::vector<double>& predicted) {
  DCM_CHECK(observed.size() == predicted.size());
  DCM_CHECK(!observed.empty());
  double mean = 0.0;
  for (double v : observed) mean += v;
  mean /= static_cast<double>(observed.size());
  double ss_res = 0.0, ss_tot = 0.0;
  for (size_t i = 0; i < observed.size(); ++i) {
    ss_res += (observed[i] - predicted[i]) * (observed[i] - predicted[i]);
    ss_tot += (observed[i] - mean) * (observed[i] - mean);
  }
  // Sums of squares are non-negative, so <= 0 is the exact-zero case without
  // a float equality comparison.
  if (ss_tot <= 0.0) return ss_res <= 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

}  // namespace dcm::fit
