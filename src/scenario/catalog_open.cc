// Open-system scenarios O1–O3: the workload plane's simulated-time
// arrivals and multi-tenant weighted-fair sharing (DESIGN.md §Workload
// plane). The closed paper scenarios submit every task at t = 0; these
// sweep what the paper holds fixed — offered load, tenant weight mixes,
// and the arrival process shape — using the pull schedulers (the
// task-centric baselines make premature placements and cannot take timed
// arrivals).
#include <string>
#include <vector>

#include "scenario/catalog.h"

namespace wcs::scenario::detail {

namespace {

// Mean per-task service time on one paper-platform worker, measured
// from the golden closed runs (makespan * workers / tasks ~= 7800 s at
// Table 1 defaults). Offered load rho on W workers then fixes the
// Poisson mean inter-arrival gap at kMeanServiceS / (W * rho).
constexpr double kMeanServiceS = 7800.0;

double interarrival_for_load(const grid::GridConfig& config, double rho) {
  const double workers =
      static_cast<double>(config.tiers.num_sites) *
      static_cast<double>(config.tiers.workers_per_site);
  return kMeanServiceS / (workers * rho);
}

// The pull schedulers, paper order: workqueue baseline, then the
// worker-centric metrics (rest/combined at ChooseTask 1 and 2).
std::vector<sched::SchedulerSpec> pull_schedulers() {
  std::vector<sched::SchedulerSpec> specs;
  sched::SchedulerSpec wq;
  wq.algorithm = sched::Algorithm::kWorkqueue;
  specs.push_back(wq);
  for (int n : {1, 2}) {
    for (sched::Algorithm a :
         {sched::Algorithm::kRest, sched::Algorithm::kCombined}) {
      sched::SchedulerSpec s;
      s.algorithm = a;
      s.choose_n = n;
      specs.push_back(s);
    }
  }
  return specs;
}

ScenarioSpec open_base(const char* name, const BuildOptions& options) {
  ScenarioSpec spec;
  spec.name = name;
  spec.workload.coadd = paper_workload(options);
  spec.schedulers = pull_schedulers();
  return spec;
}

}  // namespace

void register_open_scenarios() {
  // O1: saturation sweep. Single tenant, Poisson arrivals; the offered
  // load rho scales the arrival rate against the platform's service
  // capacity. Below saturation the makespan is arrival-dominated and
  // algorithms converge; past rho = 1 the backlog grows and the
  // locality-aware metrics pull ahead again.
  register_scenario(
      "open_saturation", "O1: open-system saturation sweep (Poisson load)",
      [](const BuildOptions& options) {
        ScenarioSpec spec = open_base("open_saturation", options);
        spec.title = "Open O1: makespan vs offered load";
        spec.x_axis = "load";
        spec.metric = Metric::kMakespanMinutes;
        spec.metric_name = "makespan (minutes)";
        std::vector<double> loads = {0.5, 0.8, 1.2};
        if (options.fast) loads = {0.5, 1.2};
        for (double rho : loads) {
          Point pt;
          pt.x = rho;
          pt.label = "rho=" + std::to_string(rho).substr(0, 3);
          pt.config = paper_platform();
          workload::GeneratorSpec wl = spec.workload;
          wl.open.process = workload::ArrivalProcess::kPoisson;
          wl.open.mean_interarrival_s = interarrival_for_load(pt.config, rho);
          pt.workload = wl;
          spec.points.push_back(std::move(pt));
        }
        spec.notes =
            "reading: arrivals gate the pending set, so below saturation "
            "every pull scheduler tracks the arrival curve; data-aware "
            "ChooseTask matters again once the backlog builds (rho > 1).";
        return spec;
      });

  // O2: tenant-mix ablation. Multi-tenant Coadd bag streams under the
  // WRR layer; the sweep varies the weight mix at fixed total load. The
  // per-tenant report sections carry the fairness observables (served
  // shares, Jain's index, per-tenant sojourn percentiles).
  register_scenario(
      "open_tenant_mix",
      "O2: multi-tenant weight-mix ablation (WRR fairness)",
      [](const BuildOptions& options) {
        ScenarioSpec spec = open_base("open_tenant_mix", options);
        spec.title = "Open O2: weighted fair sharing vs tenant weight mix";
        spec.x_axis = "weights";
        spec.metric = Metric::kMakespanMinutes;
        spec.metric_name = "makespan (minutes)";
        std::vector<std::vector<std::uint32_t>> mixes = {
            {1, 1}, {3, 1}, {3, 1, 2}};
        if (options.fast) mixes = {{1, 1}, {3, 1}};
        for (const std::vector<std::uint32_t>& weights : mixes) {
          Point pt;
          pt.x = static_cast<double>(weights.size());
          std::string label;
          for (std::uint32_t w : weights) {
            if (!label.empty()) label += ':';
            label += std::to_string(w);
          }
          pt.label = label;
          pt.config = paper_platform();
          workload::GeneratorSpec wl = spec.workload;
          wl.generator = "multi-tenant";
          wl.open.process = workload::ArrivalProcess::kPoisson;
          // Fixed total offered load: each tenant contributes its share
          // of the per-worker service capacity.
          wl.open.mean_interarrival_s =
              interarrival_for_load(pt.config, 0.9) *
              static_cast<double>(weights.size());
          for (std::uint32_t w : weights) {
            workload::TenantInfo t;
            t.weight = w;
            wl.open.tenants.push_back(t);
          }
          pt.workload = wl;
          spec.points.push_back(std::move(pt));
        }
        spec.notes =
            "reading: the WRR layer serves worker requests proportionally "
            "to tenant weight; jain_fairness and the per-tenant sojourn "
            "percentiles in the run report quantify it.";
        return spec;
      });

  // O3: burst vs steady. Same mean arrival rate, three process shapes —
  // Poisson (memoryless), diurnal (thinned sinusoidal rate), and
  // heavy-tailed bursts (Pareto gaps between geometric-size batches).
  register_scenario(
      "open_burst", "O3: burst-vs-steady arrival-process comparison",
      [](const BuildOptions& options) {
        ScenarioSpec spec = open_base("open_burst", options);
        spec.title = "Open O3: makespan vs arrival-process shape";
        spec.x_axis = "process";
        spec.metric = Metric::kMakespanMinutes;
        spec.metric_name = "makespan (minutes)";
        std::vector<workload::ArrivalProcess> processes = {
            workload::ArrivalProcess::kPoisson,
            workload::ArrivalProcess::kDiurnal,
            workload::ArrivalProcess::kBursty};
        if (options.fast)
          processes = {workload::ArrivalProcess::kPoisson,
                       workload::ArrivalProcess::kBursty};
        double x = 0;
        for (workload::ArrivalProcess process : processes) {
          Point pt;
          pt.x = x++;
          pt.label = workload::to_string(process);
          pt.config = paper_platform();
          workload::GeneratorSpec wl = spec.workload;
          wl.open.process = process;
          wl.open.mean_interarrival_s =
              interarrival_for_load(pt.config, 0.9);
          pt.workload = wl;
          spec.points.push_back(std::move(pt));
        }
        spec.notes =
            "reading: at equal mean rate, bursty arrivals pile the pending "
            "set up and briefly re-create the closed-batch regime where "
            "data-aware ChooseTask wins; steady arrivals keep queues short.";
        return spec;
      });
}

}  // namespace wcs::scenario::detail
