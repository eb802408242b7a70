// One row of a key table: a `[section] key` of the INI vocabulary, the typed
// field it reads and writes, when it applies, its domain and its canonical
// spelling.
//
// The scenario vocabulary is one table of these rows (scenario/scenario.cpp),
// and each controller-zoo family owns the rows of its tuning keys next to
// the config struct they set (control/*_controller.h). Parsing, the
// unknown-key check, domain checks and canonical emission are loops over
// the rows, so a key's name is written once and adding a knob is one field
// plus one row.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <variant>

#include "common/strings.h"

namespace dcm {

/// Where a row's value lives inside its owner.
using FieldRef = std::variant<double*, int*, bool*, uint64_t*, std::string*>;

template <class Member>
struct MemberOwner;
template <class T, class Owner>
struct MemberOwner<T Owner::*> {
  using type = Owner;
};

/// The field `owner.*First.*Rest...`: a member, or a member of a member.
/// `field_of<&Scenario::faults, &fault::FaultSpec::crash_mttf_seconds>`.
template <auto First, auto... Rest>
FieldRef field_of(typename MemberOwner<decltype(First)>::type& owner) {
  return &((owner.*First) .* ... .* Rest);
}

/// A numeric domain; an open end excludes its bound. NaN and ±inf lie
/// outside every domain.
struct KeyDomain {
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  bool min_open = false;
  bool max_open = false;

  bool accepts(double value) const {
    const bool above = min_open ? value > min : value >= min;
    const bool below = max_open ? value < max : value <= max;
    return std::isfinite(value) && above && below;
  }

  /// The domain as an error message spells it: ">= 0", "in (0, 1]".
  std::string text() const {
    if (std::isinf(max)) return (min_open ? "> " : ">= ") + format_double(min);
    return std::string("in ") + (min_open ? "(" : "[") + format_double(min) + ", " +
           format_double(max) + (max_open ? ")" : "]");
  }
};

template <class Owner>
struct KeyRow {
  /// Empty in a zoo family's rows: the scenario files them under [controller].
  const char* section = "";
  const char* name = "";
  /// The typed field the key reads and writes; null for a structured value,
  /// which brings `parse`/`format` instead.
  FieldRef (*field)(Owner&) = nullptr;
  /// Checked on every numeric value read; int fields are further bounded by
  /// the int range.
  KeyDomain domain = {};
  /// The key is part of the vocabulary only when this holds (null = always).
  /// Reads only ungated rows, which are parsed first.
  bool (*applies)(const Owner&) = nullptr;
  /// A constraint relating the value to other fields, checked once every
  /// key is read: returns the domain text when violated, null otherwise.
  const char* (*relation)(const Owner&) = nullptr;
  /// Canonical emission leaves the key out when this holds (null = never).
  bool (*omitted)(const Owner&) = nullptr;
  /// Structured values: text → field (throws std::invalid_argument with the
  /// reason) and field → canonical text.
  void (*parse)(Owner&, const std::string& text) = nullptr;
  std::string (*format)(const Owner&) = nullptr;
};

}  // namespace dcm
