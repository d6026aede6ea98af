// perfbench_selftest: the benchmark's own checks.
//
//   - A wrapped run equals an unwrapped run, at 500 tasks, for all six
//     paper schedulers and for the WRR multi-tenant path (decorator on
//     the tenant layer and on every inner scheduler), with and without
//     worker churn. The profiler's per-phase call counts must match too,
//     so a decorator that drops set_profiler, or misses a virtual such as
//     supports_arrivals, pending_count or on_worker_failed, fails here.
//   - Every metric name matches [A-Za-z0-9_.-]+, and every workload
//     reports the same per-layer names.
//   - Self times are >= 0 and trace.unattributed_frac is in [0, 1].
//   - The correctness gate flags a lost task and a changed outcome.
//
// Run: python3 perfbench/run.py --self-test
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "grid/grid_simulation.h"
#include "harness.h"
#include "layer_trace.h"
#include "sched/factory.h"
#include "sched/tenant_wrr.h"
#include "workloads.h"

namespace {

using namespace wcs;
using namespace wcs::perfbench;

constexpr std::size_t kSmallTasks = 500;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

// A decorator that hides pending work (pending_count) can leave the WRR
// layer starving while periodic events (replication scans, churn) keep
// the simulation alive forever. Every simulation gets a deadline; past
// it the test fails and exits.
constexpr unsigned kDeadlineSeconds = 30;
char g_running[256] = "";

void on_deadline(int) {
  const char prefix[] = "FAIL deadline exceeded: ";
  (void)!write(STDOUT_FILENO, prefix, sizeof prefix - 1);
  (void)!write(STDOUT_FILENO, g_running, std::strlen(g_running));
  (void)!write(STDOUT_FILENO, "\n", 1);
  _exit(1);
}

void arm_deadline(const std::string& what) {
  std::snprintf(g_running, sizeof g_running, "%s", what.c_str());
  alarm(kDeadlineSeconds);
}

enum class Wrap { kNone, kOuter, kInner };

struct Observed {
  std::string error;
  metrics::RunResult result;
  std::vector<std::uint64_t> phase_calls;
};

using Tracers = std::vector<std::unique_ptr<LayerTracer>>;

std::unique_ptr<sched::Scheduler> build(const sched::SchedulerSpec& spec,
                                        const workload::Workload& w, Wrap wrap,
                                        Tracers& tracers) {
  auto traced = [&](std::unique_ptr<sched::Scheduler> inner) {
    tracers.push_back(std::make_unique<LayerTracer>());
    return std::make_unique<TracingScheduler>(std::move(inner),
                                              *tracers.back());
  };
  if (wrap == Wrap::kInner) {
    // The factory's WRR construction, with every inner scheduler wrapped.
    return std::make_unique<sched::TenantWrrScheduler>(
        w.arrivals, [&](std::uint32_t tenant) {
          sched::SchedulerSpec inner = spec;
          inner.seed = substream_seed(spec.seed, tenant);
          return traced(sched::make_scheduler(inner));
        });
  }
  std::unique_ptr<sched::Scheduler> s =
      sched::make_scheduler(spec, &w.arrivals);
  return wrap == Wrap::kOuter ? traced(std::move(s)) : std::move(s);
}

Observed observe(const SimSpec& spec, const workload::Workload& w,
                 bool churn, Wrap wrap) {
  arm_deadline(spec.label + (churn ? " churn" : "") +
               (wrap == Wrap::kInner   ? " inner"
                : wrap == Wrap::kOuter ? " outer"
                                       : ""));
  Observed o;
  grid::GridConfig config = spec.config;
  config.obs.profile = true;
  if (churn) {
    grid::GridConfig::ChurnParams c;
    c.mean_uptime_s = 6 * 3600.0;
    c.mean_downtime_s = 3600.0;
    config.churn = c;
  }
  Tracers tracers;
  try {
    grid::GridSimulation sim(config, w,
                             build(spec.scheduler, w, wrap, tracers));
    for (auto& t : tracers) t->bind(nullptr, &sim.simulator());
    o.result = sim.run();
    const obs::PhaseProfiler* p = sim.observability()->profiler();
    for (std::size_t i = 0; i < obs::kNumPhases; ++i)
      o.phase_calls.push_back(p->slot(static_cast<obs::Phase>(i)).calls);
  } catch (const std::exception& e) {
    o.error = e.what();
  }
  alarm(0);
  return o;
}

// Field-by-field difference of two runs; empty when identical.
std::string diff(const Observed& a, const Observed& b) {
  std::ostringstream os;
  if (!a.error.empty() || !b.error.empty()) {
    os << "error: '" << a.error << "' vs '" << b.error << "'";
    return os.str();
  }
  const metrics::RunResult& x = a.result;
  const metrics::RunResult& y = b.result;
  auto field = [&](const char* name, auto u, auto v) {
    if (!(u == v)) os << name << " " << u << " vs " << v << "; ";
  };
  field("scheduler", x.scheduler, y.scheduler);
  field("makespan_s", x.makespan_s, y.makespan_s);
  field("tasks_completed", x.tasks_completed, y.tasks_completed);
  field("assignments", x.assignments, y.assignments);
  field("replicas_started", x.replicas_started, y.replicas_started);
  field("replicas_cancelled", x.replicas_cancelled, y.replicas_cancelled);
  field("events_executed", x.events_executed, y.events_executed);
  field("files_replicated", x.files_replicated, y.files_replicated);
  field("bytes_replicated", x.bytes_replicated, y.bytes_replicated);
  field("worker_failures", x.worker_failures, y.worker_failures);
  field("instances_lost", x.instances_lost, y.instances_lost);
  field("sites", x.sites.size(), y.sites.size());
  for (std::size_t s = 0; s < x.sites.size() && s < y.sites.size(); ++s) {
    const metrics::SiteResult& p = x.sites[s];
    const metrics::SiteResult& q = y.sites[s];
    field("site.batches_served", p.batches_served, q.batches_served);
    field("site.batches_cancelled", p.batches_cancelled, q.batches_cancelled);
    field("site.waiting_s", p.waiting_s, q.waiting_s);
    field("site.transfer_s", p.transfer_s, q.transfer_s);
    field("site.file_transfers", p.file_transfers, q.file_transfers);
    field("site.bytes_transferred", p.bytes_transferred, q.bytes_transferred);
    field("site.bytes_saved", p.bytes_saved, q.bytes_saved);
    field("site.cache_hits", p.cache_hits, q.cache_hits);
    field("site.evictions", p.evictions, q.evictions);
  }
  field("tenants", x.tenants.size(), y.tenants.size());
  for (std::size_t t = 0; t < x.tenants.size() && t < y.tenants.size(); ++t) {
    field("tenant.completed", x.tenants[t].completed, y.tenants[t].completed);
    field("tenant.makespan_s", x.tenants[t].makespan_s,
          y.tenants[t].makespan_s);
    field("tenant.sojourn_p99_s", x.tenants[t].sojourn_p99_s,
          y.tenants[t].sojourn_p99_s);
    field("tenant.time_to_first_task_s", x.tenants[t].time_to_first_task_s,
          y.tenants[t].time_to_first_task_s);
  }
  for (std::size_t i = 0; i < a.phase_calls.size(); ++i)
    field(obs::to_string(static_cast<obs::Phase>(i)), a.phase_calls[i],
          b.phase_calls[i]);
  return os.str();
}

void wrapped_equals_unwrapped(const std::string& workload, bool churn) {
  const WorkloadPlan plan = make_plan(workload, kDefaultSeed, kSmallTasks);
  const workload::Workload w = plan.generate();
  std::vector<Wrap> wraps = {Wrap::kOuter};
  if (w.open()) wraps.push_back(Wrap::kInner);
  for (const SimSpec& spec : plan.sims) {
    const Observed bare = observe(spec, w, churn, Wrap::kNone);
    expect(bare.error.empty(), workload + "/" + spec.label + ": " + bare.error);
    expect(bare.result.tasks_completed == plan.tasks,
           workload + "/" + spec.label + ": unwrapped run lost tasks");
    if (churn)
      expect(bare.result.worker_failures > 0,
             workload + "/" + spec.label + ": churn produced no failure");
    for (Wrap wrap : wraps) {
      const std::string d = diff(bare, observe(spec, w, churn, wrap));
      expect(d.empty(), workload + "/" + spec.label +
                            (wrap == Wrap::kInner ? " inner" : " outer") +
                            (churn ? " churn" : "") +
                            ": wrapped != unwrapped: " + d);
    }
  }
}

// One small traced invocation: names, self times, unattributed share.
std::vector<std::string> check_metrics(const std::string& workload) {
  const WorkloadPlan plan = make_plan(workload, kDefaultSeed, kSmallTasks);
  std::vector<PassMeasure> untraced = {run_pass(plan, false)};
  std::vector<PassMeasure> traced = {run_pass(plan, true)};
  for (const PassMeasure* p : {&untraced[0], &traced[0]})
    expect(check_pass(plan, *p, &untraced[0]).empty(),
           workload + ": small pass failed the correctness gate");

  const MetricMap e2e = end_to_end_metrics(plan, untraced, 2, 0);
  const MetricMap layers =
      layer_metrics(traced, untraced, measure_routes(plan));
  std::vector<std::string> names;
  for (const MetricMap* m : {&e2e, &layers})
    for (const auto& [name, metric] : *m) {
      expect(valid_metric_name(name), workload + ": bad metric name " + name);
      expect(valid_unit(metric.unit),
             workload + ": bad unit " + metric.unit);
    }
  for (const std::string& name : reported_end_to_end())
    expect(e2e.count(name) == 1, workload + ": missing " + name);

  for (const auto& [name, metric] : layers) {
    names.push_back(name);
    const bool time = name.size() > 2 && name.substr(name.size() - 2) == "_s";
    if (time)
      expect(metric.value >= 0, workload + ": negative " + name);
  }
  for (const SimMeasure& s : traced[0].sims) {
    for (double self : s.layers.self_s)
      expect(self >= 0, workload + "/" + s.label + ": negative self time");
    expect(s.layers.dispatch_self_s >= 0 && s.layers.eviction_self_s >= 0,
           workload + "/" + s.label + ": negative dispatch/eviction self");
    expect(s.layers.count(SpanKind::kRequest) > 0,
           workload + "/" + s.label + ": no request spans recorded");
  }
  const double unattributed = layers.at("trace.unattributed_frac").value;
  expect(unattributed >= 0 && unattributed <= 1,
         workload + ": trace.unattributed_frac " +
             std::to_string(unattributed) + " outside [0, 1]");
  return names;
}

void gate_flags_failures() {
  const WorkloadPlan plan = make_plan("paper", kDefaultSeed, 200);
  PassMeasure pass = run_pass(plan, false);
  expect(check_pass(plan, pass, &pass).empty(), "gate: clean pass flagged");
  PassMeasure changed = pass;
  changed.sims[0].outcome.makespan_s += 1;
  expect(check_pass(plan, changed, &pass).size() == 1,
         "gate: changed outcome not flagged");
  PassMeasure lost = pass;
  lost.sims[1].outcome.tasks_completed -= 1;
  expect(check_pass(plan, lost, &pass).size() == 1,
         "gate: lost task not flagged");
  const WorkloadPlan pinned = make_plan("paper", kDefaultSeed);
  PassMeasure unpinned = pass;
  for (SimMeasure& s : unpinned.sims) s.outcome.tasks_completed = pinned.tasks;
  expect(check_pass(pinned, unpinned, nullptr).size() == unpinned.sims.size(),
         "gate: outcome off the pinned reference not flagged");
}

}  // namespace

int main() {
  signal(SIGALRM, on_deadline);
  for (bool churn : {false, true}) {
    wrapped_equals_unwrapped("paper", churn);
    wrapped_equals_unwrapped("open", churn);
  }
  std::printf("wrapped == unwrapped: done\n");

  // The scale platform's 100 x 100 set-up takes seconds even at small
  // task counts; its names come from the same code as the others'.
  const std::vector<std::string> paper = check_metrics("paper");
  const std::vector<std::string> open = check_metrics("open");
  expect(paper == open, "paper and open report different per-layer names");
  std::printf("metric names and self times: done\n");

  gate_flags_failures();
  std::printf("correctness gate: done\n");

  if (g_failures > 0) {
    std::printf("perfbench_selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
