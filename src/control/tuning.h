// Scenario-facing tuning keys of a controller family.
//
// Each zoo family lists its `[controller]` keys next to the config fields
// and defaults they set, with the valid range of each. The scenario layer
// parses, range-checks and emits the keys generically, so a family's
// defaults are written once (in its config struct) and adding a tuning key
// touches only the family's header.
#pragma once

#include <cmath>
#include <limits>
#include <string>

#include "common/strings.h"

namespace dcm::control {

template <class Config>
struct TuningKey {
  const char* name = "";
  /// The field the key sets: exactly one of `real` / `integer`.
  double Config::*real = nullptr;
  int Config::*integer = nullptr;
  /// Valid range; an open end excludes its bound.
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  bool min_open = false;
  bool max_open = false;

  double get(const Config& config) const {
    return real != nullptr ? config.*real : config.*integer;
  }

  bool accepts(double value) const {
    const bool above = min_open ? value > min : value >= min;
    const bool below = max_open ? value < max : value <= max;
    return above && below;
  }

  /// The range as an error message spells it: ">= 0", "in (0, 1]".
  std::string range_text() const {
    if (std::isinf(max)) {
      return str_format("%s %g", min_open ? ">" : ">=", min);
    }
    return str_format("in %c%g, %g%c", min_open ? '(' : '[', min, max, max_open ? ')' : ']');
  }
};

}  // namespace dcm::control
