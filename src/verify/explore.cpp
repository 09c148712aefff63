// Explorer API pieces shared by both build flavours. The controlled
// scheduler itself lives in controller.cpp (MP_VERIFY builds); without
// MP_VERIFY this TU provides the inert stubs so callers compile uniformly.
#include "verify/explore.hpp"

#include <sstream>

namespace mp::verify {

std::string ExploreResult::summary() const {
  std::ostringstream os;
  os << "explored " << schedules << " schedule" << (schedules == 1 ? "" : "s");
  if (exhausted) os << " (exhaustive: schedule space fully covered)";
  if (truncated > 0) os << ", " << truncated << " truncated by the step budget";
  if (timeout_schedules > 0)
    os << ", " << timeout_schedules << " rescued by a modelled cv timeout";
  if (violation) {
    os << "\nVIOLATION: " << violation_message << '\n' << violation_trace;
  } else {
    os << ", no violation";
  }
  return os.str();
}

#ifndef MP_VERIFY

bool exploration_supported() { return false; }

ExploreResult explore(const std::function<void()>& /*body*/,
                      const ExploreConfig& /*cfg*/) {
  return ExploreResult{};  // inert without -DMP_VERIFY=1
}

#endif

}  // namespace mp::verify
