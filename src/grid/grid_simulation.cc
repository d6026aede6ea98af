#include "grid/grid_simulation.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/interner.h"
#include "common/rng.h"

namespace wcs::grid {

GridSimulation::GridSimulation(const GridConfig& config,
                               const workload::Job& job,
                               std::unique_ptr<sched::Scheduler> scheduler)
    : GridSimulation(config, job, nullptr, std::move(scheduler)) {}

GridSimulation::GridSimulation(const GridConfig& config,
                               const workload::Workload& workload,
                               std::unique_ptr<sched::Scheduler> scheduler)
    : GridSimulation(config, workload.job,
                     workload.open() ? &workload.arrivals : nullptr,
                     std::move(scheduler)) {}

GridSimulation::GridSimulation(const GridConfig& config,
                               const workload::Job& job,
                               const workload::ArrivalSchedule* arrivals,
                               std::unique_ptr<sched::Scheduler> scheduler)
    : config_(config),
      job_(job),
      arrivals_(arrivals),
      scheduler_(std::move(scheduler)),
      grid_topo_(net::build_tiers_topology(config.tiers)) {
  WCS_CHECK(scheduler_ != nullptr);
  validate_config(config_, job_);

  // Dynamic-estimate error factors for the XSufferage/MCT baselines
  // (GridConfig::estimate_error; empty = exact). Bandwidth and CPU draws
  // interleave per site from one RNG stream — the draw order is part of
  // the deterministic contract, so the vectors are produced here and
  // handed to the planes that serve them.
  std::vector<double> bandwidth_error;
  std::vector<double> mflops_error;
  const auto num_sites = static_cast<std::size_t>(config_.tiers.num_sites);
  if (config_.estimate_error > 0) {
    Rng estimate_rng(config_.estimate_seed * 0x9e3779b97f4a7c15ULL ^
                     config_.tiers.seed);
    auto draw = [&] {
      double hi = std::log(1.0 + config_.estimate_error);
      return std::exp(estimate_rng.uniform_real(-hi, hi));
    };
    for (std::size_t s = 0; s < num_sites; ++s) {
      bandwidth_error.push_back(draw());
      mflops_error.push_back(draw());
    }
  }

  data_ = std::make_unique<DataPlane>(config_, job_, grid_topo_, sim_,
                                      std::move(bandwidth_error));

  const std::size_t num_workers =
      num_sites * static_cast<std::size_t>(config_.tiers.workers_per_site);
  telemetry_ = std::make_unique<EngineTelemetry>(config_, num_workers);
  ControlPlane::Hooks hooks;
  if (telemetry_->recording()) {
    hooks.trace = [this](metrics::TimelineEventKind kind, TaskId task,
                         WorkerId worker) {
      telemetry_->record(sim_.now(), kind, task, worker);
    };
  }
  hooks.on_all_tasks_completed = [this] {
    data_->stop_replication();  // no more scans; drain cleanly
    if (fault_) fault_->stop();
  };
  const FaultPlane::TraceFn fault_trace = hooks.trace;
  control_ = std::make_unique<ControlPlane>(config_, job_, arrivals_,
                                            grid_topo_, sim_, *data_,
                                            *scheduler_,
                                            std::move(mflops_error),
                                            std::move(hooks));
  if (config_.churn)
    fault_ = std::make_unique<FaultPlane>(config_, sim_, *control_,
                                          *scheduler_, fault_trace);

  if (obs::Observability* o = telemetry_->observability()) {
    sim_.set_profiler(o->profiler());
    scheduler_->set_profiler(o->profiler());
    data_->set_observability(o, sim_);
  }
}

GridSimulation::~GridSimulation() = default;

void GridSimulation::register_audit_checkers() {
  auditor_->add_checker("flow-conservation", [this](auto& out) {
    audit::check_flow_conservation(data_->flows().audit_snapshot(), out);
  });
  auditor_->add_checker("flow-rates", [this](auto& out) {
    audit::check_flow_rates(data_->flows().audit_rates_snapshot(), out);
  });
  auditor_->add_checker("cache-coherence", [this](auto& out) {
    for (std::size_t s = 0; s < data_->num_sites(); ++s) {
      const storage::DataServer& ds =
          data_->server(SiteId(static_cast<SiteId::underlying_type>(s)));
      audit::check_cache_coherence(
          ds.cache().audit_snapshot(
              "site " + std::to_string(ds.site().value()) + " data server"),
          out);
    }
  });
  auditor_->add_checker("block-store", [this](auto& out) {
    for (std::size_t s = 0; s < data_->num_sites(); ++s) {
      const storage::DataServer& ds =
          data_->server(SiteId(static_cast<SiteId::underlying_type>(s)));
      audit::check_block_store(
          ds.cache().block_audit_snapshot(
              "site " + std::to_string(ds.site().value()) + " block store"),
          out);
    }
  });
  auditor_->add_checker("index-coherence", [this](auto& out) {
    scheduler_->audit_collect(out);
  });
  auditor_->add_checker("task-lifecycle", [this](auto& out) {
    audit::check_task_lifecycle(control_->lifecycle_snapshot(drained_), out);
  });
  if (arrivals_ != nullptr) {
    auditor_->add_checker("tenant-accounting", [this](auto& out) {
      audit::check_tenant_accounting(control_->tenant_snapshot(drained_),
                                     out);
    });
  }
  auditor_->add_checker("event-kernel", [this](auto& out) {
    audit::EventKernelSnapshot snap;
    snap.now = sim_.now();
    snap.previous_now = audit_prev_now_;
    snap.live_count = sim_.live_events();
    const sim::Simulator::EventCounts counts = sim_.recount_events();
    snap.recount_live = counts.live;
    snap.recount_cancelled = counts.cancelled;
    snap.recount_fired = counts.fired;
    snap.scheduled_total = counts.scheduled;
    audit::check_event_kernel(snap, out);
    audit_prev_now_ = sim_.now();  // audit-only bookkeeping
  });
  auditor_->add_checker("memory-layout", [this](auto& out) {
    audit::MemoryLayoutSnapshot snap;
    snap.label = "run";
    snap.interner_symbols = common::global_interner().size();
    snap.interner_defects = common::global_interner().self_check();
    for (std::size_t s = 0; s < data_->num_sites(); ++s) {
      const storage::DataServer& ds =
          data_->server(SiteId(static_cast<SiteId::underlying_type>(s)));
      for (std::string& d : ds.memory_defects())
        snap.table_defects.push_back("site " + std::to_string(s) +
                                     " data server: " + d);
    }
    const common::NodeArena& arena = data_->flows().arena();
    audit::ArenaAccounting acc;
    acc.label = "flow-table arena";
    const common::NodeArena::Stats& st = arena.stats();
    acc.total_allocations = st.total_allocations;
    acc.live_allocations = st.live_allocations;
    acc.freelist_hits = st.freelist_hits;
    acc.large_allocations = st.large_allocations;
    acc.large_live = st.large_live;
    acc.pages = st.pages;
    acc.page_bytes = st.page_bytes;
    acc.defects = arena.structural_defects();
    snap.arenas.push_back(std::move(acc));
    audit::check_memory_layout(snap, out);
  });
}

void GridSimulation::audit_results_ledger(
    const metrics::RunResult& result) const {
  audit::ResultsLedgerSnapshot ledger;
  ledger.makespan_s = result.makespan_s;
  ledger.max_completion_s = control_->audit_max_completion();
  ledger.tasks_completed = result.tasks_completed;
  ledger.num_tasks = job_.num_tasks();
  ledger.reported_bytes =
      result.total_bytes_transferred() + result.bytes_replicated;
  ledger.delivered_bytes = data_->flows().bytes_delivered();
  std::vector<audit::Violation> violations;
  audit::check_results_ledger(ledger, violations);
  audit::throw_if_violations("results ledger at end of run",
                             std::move(violations));
}

metrics::RunResult GridSimulation::assemble_result() const {
  metrics::RunResult result;
  result.scheduler = scheduler_->name();
  result.makespan_s = control_->last_completion();
  result.tasks_completed = control_->tasks_completed();
  result.assignments = control_->assignments();
  result.replicas_started = control_->replicas_started();
  result.replicas_cancelled = control_->replicas_cancelled();
  result.events_executed = sim_.executed_events();
  if (const replication::DataReplicator* r = data_->replicator()) {
    result.files_replicated = r->stats().files_replicated;
    result.bytes_replicated = r->stats().bytes_replicated;
  }
  if (fault_) {
    result.worker_failures = fault_->failures();
    result.worker_recoveries = fault_->recoveries();
    result.instances_lost = fault_->instances_lost();
  }
  result.sites = data_->site_results();
  result.tenants = control_->tenant_results();
  return result;
}

metrics::RunResult GridSimulation::run() {
  WCS_CHECK_MSG(!ran_, "GridSimulation::run() is single-shot");
  ran_ = true;
  if (arrivals_ != nullptr)
    WCS_CHECK_MSG(scheduler_->supports_arrivals(),
                  "scheduler " << scheduler_->name()
                               << " cannot run an open-system workload "
                                  "(no on_tasks_arrived support)");

  scheduler_->attach(*this);
  scheduler_->on_job_submitted();
  data_->start_replication();
  control_->start();
  if (fault_) fault_->start();

  if (config_.audit) {
    auditor_ = std::make_unique<audit::InvariantAuditor>();
    register_audit_checkers();
    // Step manually so the checkers sweep the live simulation every
    // audit_interval_events executed events. The checkers are read-only:
    // results are byte-identical to the sim_.run() path below.
    const std::size_t interval =
        std::max<std::size_t>(1, config_.audit_interval_events);
    std::size_t next_sweep = sim_.executed_events() + interval;
    while (sim_.step()) {
      if (sim_.executed_events() >= next_sweep) {
        auditor_->check("periodic sweep at t=" + std::to_string(sim_.now()) +
                        "s");
        next_sweep = sim_.executed_events() + interval;
      }
    }
  } else {
    sim_.run();
  }

  WCS_CHECK_MSG(control_->tasks_completed() == job_.num_tasks(),
                "simulation drained with "
                    << control_->tasks_completed() << "/" << job_.num_tasks()
                    << " tasks complete — scheduler " << scheduler_->name()
                    << " lost tasks");

  metrics::RunResult result = assemble_result();
  if (auditor_) {
    drained_ = true;
    auditor_->check("end of run");
    audit_results_ledger(result);
  }
  telemetry_->finish_run(result, sim_, data_->flows());
  return result;
}

}  // namespace wcs::grid
