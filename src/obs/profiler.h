// Phase profiler: where does a run spend its host (wall-clock) time?
//
// Components bracket their hot sections with ScopedPhase; the profiler
// accumulates call counts and wall nanoseconds per phase so a run report
// can attribute host time to scheduler decisions vs flow reallocation vs
// cache eviction vs everything else the event loop dispatches
// (DESIGN.md § Observability). ScopedPhase on a null profiler costs one
// branch and never reads the clock, so profiling off is effectively free.
//
// Wall time is host-machine measurement and therefore NOT deterministic;
// it feeds run reports and never any simulation decision, keeping
// instrumented results byte-identical to uninstrumented ones.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>

namespace wcs::obs {

class JsonWriter;

enum class Phase : std::uint8_t {
  kEventDispatch,      // event-kernel callback execution (everything)
  kSchedulerDecision,  // scheduler hooks: choose/assign/replicate
  kFlowDirtySet,       // affected-component discovery on flow churn
  kFlowRebalance,      // max-min progressive filling + rescheduling
  kCacheEviction,      // victim selection + eviction bookkeeping
  kReporting,          // metrics/trace/report emission
  kReplication,        // replicator scan: hot-set pops, placement, flow starts
};
inline constexpr std::size_t kNumPhases = 7;

[[nodiscard]] const char* to_string(Phase phase);

class PhaseProfiler {
 public:
  struct Slot {
    std::uint64_t calls = 0;
    std::uint64_t wall_ns = 0;
  };

  void record(Phase phase, std::uint64_t wall_ns) {
    Slot& s = slots_[static_cast<std::size_t>(phase)];
    ++s.calls;
    s.wall_ns += wall_ns;
  }

  [[nodiscard]] const Slot& slot(Phase phase) const {
    return slots_[static_cast<std::size_t>(phase)];
  }

  [[nodiscard]] std::uint64_t total_wall_ns() const {
    std::uint64_t total = 0;
    for (const Slot& s : slots_) total += s.wall_ns;
    return total;
  }

  // [{"phase": ..., "calls": ..., "wall_ms": ...}, ...] for every phase
  // with at least one call.
  void write_json(JsonWriter& w) const;

 private:
  std::array<Slot, kNumPhases> slots_{};
};

// RAII phase scope. Null-safe: with a null profiler the constructor and
// destructor are a single branch each.
class ScopedPhase {
 public:
  ScopedPhase(PhaseProfiler* profiler, Phase phase)
      : profiler_(profiler), phase_(phase) {
    // detlint: nondet-source -- wall-clock phase profiling; measurements never feed back into simulation state
    if (profiler_) start_ = std::chrono::steady_clock::now();
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

  ~ScopedPhase() {
    if (!profiler_) return;
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() -  // detlint: nondet-source -- wall-clock phase profiling; never feeds back into simulation state
                  start_)
                  .count();
    profiler_->record(phase_, static_cast<std::uint64_t>(ns));
  }

 private:
  PhaseProfiler* profiler_ = nullptr;
  Phase phase_ = Phase::kEventDispatch;
  // detlint: nondet-source -- wall-clock profiling state, not simulation state
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace wcs::obs
