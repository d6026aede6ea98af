#include "obs/profiler.h"

#include "obs/json.h"

namespace wcs::obs {

const char* to_string(Phase phase) {
  switch (phase) {
    case Phase::kEventDispatch: return "event-dispatch";
    case Phase::kSchedulerDecision: return "scheduler-decision";
    case Phase::kFlowDirtySet: return "flow-dirty-set";
    case Phase::kFlowRebalance: return "flow-rebalance";
    case Phase::kCacheEviction: return "cache-eviction";
    case Phase::kReporting: return "reporting";
    case Phase::kReplication: return "replication";
  }
  return "?";
}

void PhaseProfiler::write_json(JsonWriter& w) const {
  w.begin_array();
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    const Slot& s = slots_[i];
    if (s.calls == 0) continue;
    w.begin_object();
    w.member("phase", to_string(static_cast<Phase>(i)));
    w.member("calls", s.calls);
    w.member("wall_ms", static_cast<double>(s.wall_ns) / 1e6);
    w.end_object();
  }
  w.end_array();
}

}  // namespace wcs::obs
