// Layer tracing from outside the simulator.
//
// The traced pass measures each layer at its public boundary, without a
// single span inside src/:
//
//   - TracingScheduler is a forwarding sched::Scheduler decorator. It
//     times every hook the engine calls (submit, worker request, task
//     completion, arrivals) and attaches the inner scheduler to a
//     TracingEngine, a forwarding sched::GridEngine proxy that times
//     the cache-listener upkeep the inner scheduler registers and counts
//     the assignments each request makes.
//   - Layers with no public entry point (flow solve, cache eviction,
//     reporting) are read from the program's own obs::PhaseProfiler:
//     the tracer snapshots the profiler's slot totals at each span's
//     entry and exit.
//
// Self time is a span's duration minus its nested spans and its nested
// profiler phases. The scheduler-decision phase is not subtracted (the
// schedulers bracket their own hooks with it, so it IS the hook's work)
// and the event-dispatch phase is not subtracted (it encloses, it is
// never nested). Both wrappers are read-only: they forward every call
// and argument unchanged, so a wrapped run is identical to an unwrapped
// one (checked by perfbench_selftest).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/profiler.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"

namespace wcs::perfbench {

enum class SpanKind : std::uint8_t {
  kRun,         // GridSimulation::run()
  kSubmit,      // Scheduler::on_job_submitted
  kRequest,     // Scheduler::on_worker_idle
  kComplete,    // Scheduler::on_task_completed
  kArrive,      // Scheduler::on_tasks_arrived
  kCacheEvent,  // the inner scheduler's cache listeners
};
inline constexpr std::size_t kNumSpanKinds = 6;

// Totals of one traced simulation.
struct LayerTotals {
  std::array<double, kNumSpanKinds> self_s{};
  std::array<std::uint64_t, kNumSpanKinds> calls{};
  // Profiler slot deltas over the run span.
  std::array<double, obs::kNumPhases> phase_s{};
  std::array<std::uint64_t, obs::kNumPhases> phase_calls{};
  // Event callbacks outside every nested span and phase: the kernel plus
  // every plane that has no span of its own.
  double dispatch_self_s = 0;
  // Cache-eviction phase minus the eviction notifications it fires.
  double eviction_self_s = 0;
  // Inclusive latency of every on_worker_idle call, microseconds.
  std::vector<double> request_us;
  // on_worker_idle calls that assigned at least one task.
  std::uint64_t useful_requests = 0;
  std::uint64_t assignments = 0;

  [[nodiscard]] double self(SpanKind kind) const {
    return self_s[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint64_t count(SpanKind kind) const {
    return calls[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] double phase(obs::Phase p) const {
    return phase_s[static_cast<std::size_t>(p)];
  }
};

class LayerTracer {
 public:
  // Reads the profiler's slots and the kernel's executed-event counter
  // (to tell spans inside an event callback from spans before the first
  // event). Either may be null: an unbound tracer still times spans.
  void bind(const obs::PhaseProfiler* profiler, const sim::Simulator* sim) {
    profiler_ = profiler;
    sim_ = sim;
  }

  // `inside_phase`: the span runs inside a profiler phase that will also
  // count its time (eviction notifications fire inside kCacheEviction).
  void enter(SpanKind kind, bool inside_phase = false);
  // Returns the span's inclusive duration in nanoseconds.
  std::uint64_t exit();

  [[nodiscard]] const LayerTotals& totals() const { return totals_; }
  LayerTotals& totals() { return totals_; }

  class Scope {
   public:
    Scope(LayerTracer& tracer, SpanKind kind, bool inside_phase = false)
        : tracer_(tracer) {
      tracer_.enter(kind, inside_phase);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { tracer_.exit(); }

   private:
    LayerTracer& tracer_;
  };

 private:
  using Clock = std::chrono::steady_clock;
  using PhaseNs = std::array<std::uint64_t, obs::kNumPhases>;

  struct Frame {
    SpanKind kind = SpanKind::kRun;
    bool inside_phase = false;
    bool in_dispatch = false;
    Clock::time_point start{};
    PhaseNs snapshot{};
    // Direct children: their inclusive time, the part of it opened
    // inside a phase, and the profiler phases nested in them.
    std::uint64_t child_ns = 0;
    std::uint64_t child_in_phase_ns = 0;
    PhaseNs child_phase_ns{};
    // The same, restricted to children opened inside an event callback
    // (only read for the run span).
    std::uint64_t dispatch_child_ns = 0;
    std::uint64_t dispatch_child_in_phase_ns = 0;
  };

  [[nodiscard]] PhaseNs read_phases() const;

  const obs::PhaseProfiler* profiler_ = nullptr;
  const sim::Simulator* sim_ = nullptr;
  std::vector<Frame> stack_;
  std::uint64_t in_phase_ns_ = 0;  // all spans opened inside a phase
  LayerTotals totals_;
};

// Forwarding engine proxy handed to the inner scheduler.
class TracingEngine final : public sched::GridEngine {
 public:
  TracingEngine(sched::GridEngine& engine, LayerTracer& tracer)
      : engine_(engine), tracer_(tracer) {}

  [[nodiscard]] const workload::Job& job() const override {
    return engine_.job();
  }
  [[nodiscard]] std::size_t num_sites() const override {
    return engine_.num_sites();
  }
  [[nodiscard]] std::size_t num_workers() const override {
    return engine_.num_workers();
  }
  [[nodiscard]] SiteId site_of(WorkerId worker) const override {
    return engine_.site_of(worker);
  }
  [[nodiscard]] const storage::FileCache& site_cache(
      SiteId site) const override {
    return engine_.site_cache(site);
  }
  void set_cache_listener(SiteId site,
                          storage::CacheListener listener) override;
  void assign_task(TaskId task, WorkerId worker) override {
    ++tracer_.totals().assignments;
    engine_.assign_task(task, worker);
  }
  [[nodiscard]] bool worker_alive(WorkerId worker) const override {
    return engine_.worker_alive(worker);
  }
  [[nodiscard]] std::size_t worker_backlog(WorkerId worker) const override {
    return engine_.worker_backlog(worker);
  }
  [[nodiscard]] double estimated_uplink_bandwidth(
      SiteId site) const override {
    return engine_.estimated_uplink_bandwidth(site);
  }
  [[nodiscard]] double estimated_site_mflops(SiteId site) const override {
    return engine_.estimated_site_mflops(site);
  }
  [[nodiscard]] std::size_t data_server_backlog(SiteId site) const override {
    return engine_.data_server_backlog(site);
  }
  bool cancel_task(TaskId task, WorkerId worker) override {
    return engine_.cancel_task(task, worker);
  }
  [[nodiscard]] const workload::ArrivalSchedule* arrivals() const override {
    return engine_.arrivals();
  }

 private:
  sched::GridEngine& engine_;
  LayerTracer& tracer_;
};

// Forwarding scheduler decorator. Owns the inner scheduler and the proxy
// it attaches to.
class TracingScheduler final : public sched::Scheduler {
 public:
  TracingScheduler(std::unique_ptr<sched::Scheduler> inner,
                   LayerTracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  // set_profiler() is not virtual: the engine sets this decorator's
  // profiler before the run, and attach() hands it to the inner
  // scheduler along with the proxy.
  void attach(sched::GridEngine& engine) override;
  void on_job_submitted() override;
  void on_tasks_arrived(const std::vector<TaskId>& tasks) override;
  [[nodiscard]] bool supports_arrivals() const override {
    return inner_->supports_arrivals();
  }
  [[nodiscard]] std::size_t pending_count() const override {
    return inner_->pending_count();
  }
  void on_worker_idle(WorkerId worker) override;
  void on_task_completed(TaskId task, WorkerId worker) override;
  void on_worker_failed(WorkerId worker,
                        const std::vector<TaskId>& lost) override {
    inner_->on_worker_failed(worker, lost);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void audit_collect(std::vector<audit::Violation>& out) const override {
    inner_->audit_collect(out);
  }

 private:
  std::unique_ptr<sched::Scheduler> inner_;
  LayerTracer& tracer_;
  std::unique_ptr<TracingEngine> proxy_;
};

}  // namespace wcs::perfbench
