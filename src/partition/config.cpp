#include "partition/config.hpp"

#include <cstdio>

namespace hgr {

const char* to_string(IncrementalMode mode) {
  switch (mode) {
    case IncrementalMode::kOff:
      return "off";
    case IncrementalMode::kAuto:
      return "auto";
    case IncrementalMode::kOn:
      return "on";
  }
  return "unknown";
}

std::string PartitionConfig::to_string() const {
  char buf[384];
  std::snprintf(
      buf, sizeof(buf),
      "k=%d eps=%.3f seed=%llu coarsen_to=%d trials=%d passes=%d method=%s "
      "postpass=%d vcycles=%d incr=%s drift=%.3f delta=%.3f "
      "check=%s faults=%s threads=%d",
      num_parts, epsilon, static_cast<unsigned long long>(seed), coarsen_to,
      num_initial_trials, max_refine_passes,
      kway_method == KwayMethod::kRecursiveBisection ? "rb" : "kway",
      kway_postpass, num_vcycles, hgr::to_string(incremental),
      incremental_max_drift, incremental_max_delta_frac,
      check::to_string(check_level), fault_plan ? "on" : "off", num_threads);
  return buf;
}

}  // namespace hgr
