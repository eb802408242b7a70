// Run log — one typed record per run-level event.
//
// Every control action (VM scaling, soft-resource resizes, watchdog
// freeze/resume) and every fault event (injections, skips, recoveries,
// health-check ejections and replacement launches) is recorded exactly once,
// in the engine that ran it, stamped with the sim time it happened at. The
// result's action list, its fault log and the trace report's annotations are
// all views of this one log.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace dcm::sim {

/// Which plane recorded the event.
enum class EventSource : uint8_t {
  kControl,  // controller actuations and watchdog transitions
  kFault,    // injected faults and the recovery actions they provoke
};

struct RunEvent {
  SimTime at = 0;
  EventSource source = EventSource::kControl;
  std::string subject;  // tier name / VM id / topic, "*" run-wide, "" none
  std::string kind;     // "scale_out", "set_stp", "vm_crash", "lb_eject", ...
  std::string detail;   // parameters, e.g. "stp=20" or the VM's tier

  bool operator==(const RunEvent&) const = default;
};

/// Number of events of `kind` in `log`; a non-empty `subject` also has to
/// match (e.g. the scale-outs of one tier).
inline int count_events(const std::vector<RunEvent>& log, std::string_view kind,
                        std::string_view subject = {}) {
  int n = 0;
  for (const RunEvent& event : log) {
    if (event.kind == kind && (subject.empty() || event.subject == subject)) ++n;
  }
  return n;
}

}  // namespace dcm::sim
