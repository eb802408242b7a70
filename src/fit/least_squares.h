// Goodness-of-fit for least-squares model fits.
#pragma once

#include <vector>

namespace dcm::fit {

/// Coefficient of determination R² = 1 - SS_res/SS_tot for predictions
/// against observations. Returns 1 when SS_tot == 0 and SS_res == 0.
double r_squared(const std::vector<double>& observed, const std::vector<double>& predicted);

}  // namespace dcm::fit
