#include "layer_trace.h"

#include <utility>

namespace wcs::perfbench {

namespace {

// Phases a span's self time excludes when they nest inside it. Event
// dispatch only ever encloses spans; scheduler decisions are the hooks'
// own work.
constexpr std::array<obs::Phase, 4> kNestedPhases = {
    obs::Phase::kFlowDirtySet, obs::Phase::kFlowRebalance,
    obs::Phase::kCacheEviction, obs::Phase::kReporting};

// The nested phases that run inside an event callback when no span
// encloses them (reporting runs after the event loop drains).
constexpr std::array<obs::Phase, 3> kDispatchPhases = {
    obs::Phase::kFlowDirtySet, obs::Phase::kFlowRebalance,
    obs::Phase::kCacheEviction};

constexpr std::size_t idx(obs::Phase p) { return static_cast<std::size_t>(p); }

double seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

// a - b, clamped at 0 against clock granularity.
std::uint64_t minus(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : 0;
}

}  // namespace

LayerTracer::PhaseNs LayerTracer::read_phases() const {
  PhaseNs ns{};
  if (profiler_ == nullptr) return ns;
  for (std::size_t p = 0; p < obs::kNumPhases; ++p)
    ns[p] = profiler_->slot(static_cast<obs::Phase>(p)).wall_ns;
  return ns;
}

void LayerTracer::enter(SpanKind kind, bool inside_phase) {
  Frame f;
  f.kind = kind;
  f.inside_phase = inside_phase;
  f.in_dispatch = sim_ != nullptr && sim_->executed_events() > 0;
  f.snapshot = read_phases();
  f.start = Clock::now();
  stack_.push_back(f);
}

std::uint64_t LayerTracer::exit() {
  const Clock::time_point end = Clock::now();
  const PhaseNs now = read_phases();
  Frame f = stack_.back();
  stack_.pop_back();

  const auto elapsed = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - f.start)
          .count());
  PhaseNs delta{};
  for (std::size_t p = 0; p < obs::kNumPhases; ++p)
    delta[p] = minus(now[p], f.snapshot[p]);

  // Phases nested directly in this span (not inside a child span).
  std::uint64_t direct_phase_ns = 0;
  for (obs::Phase p : kNestedPhases)
    direct_phase_ns += minus(delta[idx(p)], f.child_phase_ns[idx(p)]);
  // A child opened inside a nested phase is covered twice: once as a
  // child and once inside the phase.
  const std::uint64_t covered =
      minus(f.child_ns + direct_phase_ns, f.child_in_phase_ns);
  const std::uint64_t self_ns = minus(elapsed, covered);

  const auto k = static_cast<std::size_t>(f.kind);
  ++totals_.calls[k];
  totals_.self_s[k] += seconds(self_ns);
  if (f.inside_phase) in_phase_ns_ += elapsed;

  if (f.kind == SpanKind::kRun) {
    for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
      totals_.phase_s[p] += seconds(delta[p]);
      if (profiler_ != nullptr)
        totals_.phase_calls[p] =
            profiler_->slot(static_cast<obs::Phase>(p)).calls;
    }
    std::uint64_t dispatch_phase_ns = 0;
    for (obs::Phase p : kDispatchPhases)
      dispatch_phase_ns += minus(delta[idx(p)], f.child_phase_ns[idx(p)]);
    const std::uint64_t in_dispatch =
        minus(f.dispatch_child_ns + dispatch_phase_ns,
              f.dispatch_child_in_phase_ns);
    totals_.dispatch_self_s +=
        seconds(minus(delta[idx(obs::Phase::kEventDispatch)], in_dispatch));
    totals_.eviction_self_s +=
        seconds(minus(delta[idx(obs::Phase::kCacheEviction)], in_phase_ns_));
    in_phase_ns_ = 0;
  }

  if (!stack_.empty()) {
    Frame& parent = stack_.back();
    parent.child_ns += elapsed;
    for (std::size_t p = 0; p < obs::kNumPhases; ++p)
      parent.child_phase_ns[p] += delta[p];
    if (f.inside_phase) parent.child_in_phase_ns += elapsed;
    if (f.in_dispatch) {
      parent.dispatch_child_ns += elapsed;
      if (f.inside_phase) parent.dispatch_child_in_phase_ns += elapsed;
    }
  }
  return elapsed;
}

void TracingEngine::set_cache_listener(SiteId site,
                                       storage::CacheListener listener) {
  LayerTracer& tracer = tracer_;
  engine_.set_cache_listener(
      site, [&tracer, inner = std::move(listener)](storage::CacheEvent event,
                                                   FileId file) {
        LayerTracer::Scope span(tracer, SpanKind::kCacheEvent,
                                event == storage::CacheEvent::kEvicted);
        inner(event, file);
      });
}

void TracingScheduler::attach(sched::GridEngine& engine) {
  Scheduler::attach(engine);
  proxy_ = std::make_unique<TracingEngine>(engine, tracer_);
  inner_->set_profiler(profiler_);
  inner_->attach(*proxy_);
}

void TracingScheduler::on_job_submitted() {
  LayerTracer::Scope span(tracer_, SpanKind::kSubmit);
  inner_->on_job_submitted();
}

void TracingScheduler::on_tasks_arrived(const std::vector<TaskId>& tasks) {
  LayerTracer::Scope span(tracer_, SpanKind::kArrive);
  inner_->on_tasks_arrived(tasks);
}

void TracingScheduler::on_worker_idle(WorkerId worker) {
  LayerTotals& totals = tracer_.totals();
  const std::uint64_t assigned_before = totals.assignments;
  tracer_.enter(SpanKind::kRequest);
  inner_->on_worker_idle(worker);
  const std::uint64_t ns = tracer_.exit();
  totals.request_us.push_back(static_cast<double>(ns) * 1e-3);
  if (totals.assignments > assigned_before) ++totals.useful_requests;
}

void TracingScheduler::on_task_completed(TaskId task, WorkerId worker) {
  LayerTracer::Scope span(tracer_, SpanKind::kComplete);
  inner_->on_task_completed(task, worker);
}

}  // namespace wcs::perfbench
