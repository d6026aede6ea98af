// Open-system end-to-end tests: the WRR tenant layer's deterministic
// service sequence, workload-aware scheduler construction, and full
// arrival-timed runs draining with per-tenant metrics and the
// tenant-accounting checker clean under --audit.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fake_engine.h"
#include "grid/experiment.h"
#include "grid/grid_simulation.h"
#include "obs/observability.h"
#include "sched/factory.h"
#include "sched/tenant_wrr.h"
#include "workload/registry.h"

namespace wcs::sched {
namespace {

// Minimal pull-style inner: always claims pending work and records the
// order in which the WRR layer serves its tenant.
class RecordingInner final : public Scheduler {
 public:
  RecordingInner(std::uint32_t tenant, std::vector<std::uint32_t>& order)
      : tenant_(tenant), order_(order) {}

  void on_job_submitted() override {}
  void on_worker_idle(WorkerId worker) override {
    (void)worker;
    order_.push_back(tenant_);
  }
  void on_task_completed(TaskId, WorkerId) override {}
  void on_tasks_arrived(const std::vector<TaskId>&) override {}
  [[nodiscard]] bool supports_arrivals() const override { return true; }
  [[nodiscard]] std::size_t pending_count() const override { return 100; }
  [[nodiscard]] std::string name() const override { return "recording"; }

 private:
  std::uint32_t tenant_;
  std::vector<std::uint32_t>& order_;
};

workload::ArrivalSchedule three_tenant_schedule() {
  workload::ArrivalSchedule s;
  s.tenants = {{"a", 3}, {"b", 1}, {"c", 2}};
  for (std::uint32_t t = 0; t < 3; ++t)
    for (int i = 0; i < 10; ++i) s.tenant_of.push_back(t);
  return s;
}

TEST(TenantWrr, SmoothWrrSequenceIsDeterministic) {
  // Smooth WRR over weights {3, 1, 2} with every tenant eligible must
  // serve exactly 0 2 0 1 2 0 per cycle — the deterministic-sequence
  // contract of the tenant layer.
  const workload::ArrivalSchedule schedule = three_tenant_schedule();
  std::vector<std::uint32_t> order;
  TenantWrrScheduler wrr(schedule, [&](std::uint32_t tenant) {
    return std::make_unique<RecordingInner>(tenant, order);
  });

  const workload::Job job = testing::make_job({{0}, {1}}, 2);
  testing::FakeEngine engine(job, /*num_sites=*/1, /*workers_per_site=*/2);
  wrr.attach(engine);
  wrr.on_job_submitted();

  for (int i = 0; i < 12; ++i) wrr.on_worker_idle(WorkerId(0));
  const std::vector<std::uint32_t> expected = {0, 2, 0, 1, 2, 0,
                                               0, 2, 0, 1, 2, 0};
  EXPECT_EQ(order, expected);

  // Over any whole number of cycles each tenant is served exactly in
  // proportion to its weight — the fairness observable.
  ASSERT_EQ(wrr.served_counts().size(), 3u);
  EXPECT_EQ(wrr.served_counts()[0], 6u);
  EXPECT_EQ(wrr.served_counts()[1], 2u);
  EXPECT_EQ(wrr.served_counts()[2], 4u);
  EXPECT_EQ(wrr.num_tenants(), 3u);
  EXPECT_TRUE(wrr.supports_arrivals());
}

TEST(Factory, WorkloadAwareConstructionWrapsOnlyMultiTenant) {
  SchedulerSpec spec;
  spec.algorithm = Algorithm::kRest;

  // Closed batch: the plain scheduler, same name.
  EXPECT_EQ(make_scheduler(spec, nullptr)->name(), "rest");

  // Single-tenant timed arrivals: still the plain (pull) scheduler.
  workload::ArrivalSchedule timed;
  timed.arrival_s = {0.0, 10.0, 20.0};
  EXPECT_EQ(make_scheduler(spec, &timed)->name(), "rest");

  // Multi-tenant: the WRR tenant layer wraps one inner per tenant.
  const workload::ArrivalSchedule multi = three_tenant_schedule();
  const auto wrapped = make_scheduler(spec, &multi);
  EXPECT_EQ(wrapped->name(), "rest+wrr");
  EXPECT_TRUE(wrapped->supports_arrivals());
}

}  // namespace
}  // namespace wcs::sched

namespace wcs::grid {
namespace {

GridConfig small_grid() {
  GridConfig c;
  c.tiers.num_sites = 3;
  c.tiers.workers_per_site = 3;
  c.capacity_files = 2000;
  c.audit = true;  // tenant-accounting checker must stay clean
  return c;
}

sched::SchedulerSpec pull_spec() {
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  return spec;
}

TEST(OpenSystem, SingleTenantTimedRunDrainsWithTenantMetrics) {
  workload::register_builtin_generators();
  workload::GeneratorSpec gen;
  gen.coadd.num_tasks = 80;
  gen.open.process = workload::ArrivalProcess::kPoisson;
  gen.open.mean_interarrival_s = 120.0;
  const workload::Workload wl = workload::build_workload(gen);
  ASSERT_TRUE(wl.open());

  const metrics::RunResult r = run_once(small_grid(), wl, pull_spec(), 7);
  EXPECT_EQ(r.tasks_completed, 80u);
  EXPECT_DOUBLE_EQ(r.jain_fairness(), 1.0);  // one tenant: fair by law
  ASSERT_EQ(r.tenants.size(), 1u);
  const metrics::TenantResult& t = r.tenants[0];
  EXPECT_EQ(t.tasks, 80u);
  EXPECT_EQ(t.completed, 80u);
  EXPECT_GE(t.time_to_first_task_s, 0.0);
  EXPECT_GT(t.makespan_s, 0.0);
  EXPECT_GT(t.sojourn_mean_s, 0.0);
  EXPECT_LE(t.sojourn_p50_s, t.sojourn_p95_s);
  EXPECT_LE(t.sojourn_p95_s, t.sojourn_p99_s);
  // Arrivals gate execution: the last task cannot complete before it
  // arrives, so the makespan covers the arrival horizon.
  EXPECT_GE(r.makespan_s, wl.arrivals.arrival_s.back());
}

TEST(OpenSystem, MultiTenantWrrRunDrainsAllTenants) {
  workload::register_builtin_generators();
  workload::GeneratorSpec gen;
  gen.generator = "multi-tenant";
  gen.coadd.num_tasks = 60;
  gen.open.process = workload::ArrivalProcess::kPoisson;
  gen.open.mean_interarrival_s = 150.0;
  gen.open.tenants = {{"astro", 3}, {"bio", 1}};
  const workload::Workload wl = workload::build_workload(gen);
  ASSERT_TRUE(wl.open());

  const metrics::RunResult r = run_once(small_grid(), wl, pull_spec(), 7);
  EXPECT_EQ(r.tasks_completed, wl.job.num_tasks());
  ASSERT_EQ(r.tenants.size(), 2u);
  EXPECT_EQ(r.tenants[0].name, "astro");
  EXPECT_EQ(r.tenants[0].weight, 3u);
  EXPECT_EQ(r.tenants[1].name, "bio");
  for (const metrics::TenantResult& t : r.tenants) {
    EXPECT_EQ(t.completed, t.tasks);
    EXPECT_GT(t.sojourn_mean_s, 0.0);
  }
  // Drained run: every tenant finishes everything, so the served-share
  // index is computable and in range.
  const double j = r.jain_fairness();
  EXPECT_GT(j, 0.0);
  EXPECT_LE(j, 1.0);
}

TEST(OpenSystem, TracedWrrRunProfilesTenantDecisions) {
  // The WRR wrapper makes no decision itself: its per-tenant schedulers
  // do, so they must share the run's phase profiler.
  workload::register_builtin_generators();
  workload::GeneratorSpec gen;
  gen.generator = "multi-tenant";
  gen.coadd.num_tasks = 60;
  gen.open.process = workload::ArrivalProcess::kPoisson;
  gen.open.mean_interarrival_s = 150.0;
  gen.open.tenants = {{"a", 3}, {"b", 1}, {"c", 2}};
  const workload::Workload wl = workload::build_workload(gen);

  GridConfig config = small_grid();
  config.obs = obs::Options::all();
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kOverlap;
  GridSimulation sim(config, wl, sched::make_scheduler(spec, &wl.arrivals));
  const metrics::RunResult r = sim.run();
  EXPECT_EQ(r.tasks_completed, wl.job.num_tasks());
  const obs::PhaseProfiler& phases = *sim.observability()->profiler();
  EXPECT_GT(phases.slot(obs::Phase::kSchedulerDecision).calls, 0u);
}

TEST(OpenSystem, OpenRunsAreDeterministic) {
  workload::register_builtin_generators();
  workload::GeneratorSpec gen;
  gen.generator = "multi-tenant";
  gen.coadd.num_tasks = 40;
  gen.open.process = workload::ArrivalProcess::kBursty;
  gen.open.mean_interarrival_s = 100.0;
  gen.open.tenants = {{"a", 2}, {"b", 1}};
  const workload::Workload wl = workload::build_workload(gen);

  const metrics::RunResult r1 = run_once(small_grid(), wl, pull_spec(), 7);
  const metrics::RunResult r2 = run_once(small_grid(), wl, pull_spec(), 7);
  EXPECT_EQ(r1.makespan_s, r2.makespan_s);
  EXPECT_EQ(r1.events_executed, r2.events_executed);
  EXPECT_EQ(r1.total_file_transfers(), r2.total_file_transfers());
  ASSERT_EQ(r1.tenants.size(), r2.tenants.size());
  for (std::size_t t = 0; t < r1.tenants.size(); ++t) {
    EXPECT_EQ(r1.tenants[t].sojourn_mean_s, r2.tenants[t].sojourn_mean_s);
    EXPECT_EQ(r1.tenants[t].makespan_s, r2.tenants[t].makespan_s);
  }
}

}  // namespace
}  // namespace wcs::grid
