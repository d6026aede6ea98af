// Ablation scenarios A1–A4 (DESIGN.md §4): deviations and sensitivity
// studies around the paper's algorithms.
#include <string>

#include "scenario/catalog.h"
#include "storage/file_cache.h"

namespace wcs::scenario::detail {

namespace {

Point single_point(const char* label) {
  Point pt;
  pt.x = 0;
  pt.label = label;
  pt.config = paper_platform();
  return pt;
}

}  // namespace

void register_ablation_scenarios() {
  // A1: the `combined` metric as PRINTED in the paper (ref_t/totalRef +
  // totalRest/rest_t) versus the prose-consistent normalization we ship
  // as default. The printed formula REWARDS tasks that need more
  // transfers, contradicting both the paper's stated intuition and its
  // results; this scenario quantifies how much worse it is, as evidence
  // for the deviation recorded in DESIGN.md §1/§6.
  register_scenario(
      "ablation_combined", "A1: combined formula, prose vs verbatim",
      [](const BuildOptions& options) {
        ScenarioSpec spec;
        spec.name = "ablation_combined";
        spec.title = "Ablation A1: combined formula, prose vs verbatim";
        spec.x_axis = "config";
        spec.metric = Metric::kMakespanMinutes;
        spec.metric_name = "makespan (minutes)";
        spec.workload.coadd = paper_workload(options);
        for (int n : {1, 2}) {
          for (auto formula : {sched::CombinedFormula::kProse,
                               sched::CombinedFormula::kVerbatim}) {
            sched::SchedulerSpec s;
            s.algorithm = sched::Algorithm::kCombined;
            s.choose_n = n;
            s.combined_formula = formula;
            spec.schedulers.push_back(s);
          }
        }
        sched::SchedulerSpec rest;  // reference point
        rest.algorithm = sched::Algorithm::kRest;
        spec.schedulers.push_back(rest);
        spec.points.push_back(single_point("table1-defaults"));
        return spec;
      });

  // A2: ChooseTask(n) for n in {1, 2, 4, 8}. The paper reports trying
  // several n and keeping only 1 and 2 ("only 1 and 2 give good
  // results", Sec. 5.3): n = 2 edges out n = 1 by dodging sub-optimal
  // deterministic choices, while larger n dilutes the metric with
  // weight-proportional noise.
  register_scenario(
      "ablation_choosetask", "A2: ChooseTask(n) sweep",
      [](const BuildOptions& options) {
        ScenarioSpec spec;
        spec.name = "ablation_choosetask";
        spec.title = "Ablation A2: ChooseTask(n) sweep";
        spec.x_axis = "config";
        spec.metric = Metric::kMakespanMinutes;
        spec.metric_name = "makespan (minutes)";
        spec.workload.coadd = paper_workload(options);
        for (auto algorithm :
             {sched::Algorithm::kRest, sched::Algorithm::kCombined})
          for (int n : {1, 2, 4, 8}) {
            sched::SchedulerSpec s;
            s.algorithm = algorithm;
            s.choose_n = n;
            spec.schedulers.push_back(s);
          }
        spec.points.push_back(single_point("table1-defaults"));
        return spec;
      });

  // A3: data-server eviction policy (LRU / FIFO / MinRef) under the
  // tight-capacity regime, where policy actually matters. The paper
  // fixes its replacement policy implicitly; this scenario shows how
  // much of the small-capacity behaviour is policy-dependent.
  register_scenario(
      "ablation_eviction", "A3: eviction policy x capacity",
      [](const BuildOptions& options) {
        ScenarioSpec spec;
        spec.name = "ablation_eviction";
        spec.title = "Ablation A3: eviction policy x capacity";
        spec.x_axis = "policy@capacity";
        spec.metric = Metric::kMakespanMinutes;
        spec.metric_name = "makespan (minutes)";
        spec.workload.coadd = paper_workload(options);
        sched::SchedulerSpec rest;
        rest.algorithm = sched::Algorithm::kRest;
        sched::SchedulerSpec sa;
        sa.algorithm = sched::Algorithm::kStorageAffinity;
        spec.schedulers = {rest, sa};
        for (std::size_t cap : {3000u, 6000u}) {
          for (auto policy :
               {storage::EvictionPolicy::kLru, storage::EvictionPolicy::kFifo,
                storage::EvictionPolicy::kMinRef}) {
            Point pt;
            pt.x = static_cast<double>(cap);
            pt.label = std::string(storage::to_string(policy)) + "@" +
                       std::to_string(cap);
            pt.config = paper_platform();
            pt.config.capacity_files = cap;
            pt.config.eviction = policy;
            spec.points.push_back(std::move(pt));
          }
        }
        return spec;
      });

  // A4: baselines panorama + estimate quality. Compares the paper's best
  // pull scheduler against the no-information baseline (workqueue) and
  // the dynamic-information baseline (XSufferage) while degrading the
  // platform estimates XSufferage depends on — the paper's Sec. 2.4
  // thesis regenerated as a curve.
  register_scenario(
      "ablation_baselines", "A4: baselines vs estimate quality",
      [](const BuildOptions& options) {
        ScenarioSpec spec;
        spec.name = "ablation_baselines";
        spec.title = "Ablation A4: baselines vs estimate quality";
        spec.x_axis = "estimate_error";
        spec.metric = Metric::kMakespanMinutes;
        spec.metric_name = "makespan (minutes)";
        spec.workload.coadd = paper_workload(options);
        sched::SchedulerSpec wq;
        wq.algorithm = sched::Algorithm::kWorkqueue;
        sched::SchedulerSpec xs;
        xs.algorithm = sched::Algorithm::kXSufferage;
        sched::SchedulerSpec rest2;
        rest2.algorithm = sched::Algorithm::kRest;
        rest2.choose_n = 2;
        spec.schedulers = {wq, xs, rest2};
        for (double error : {0.0, 1.0, 3.0, 9.0}) {
          Point pt;
          pt.x = error;
          std::string label(error == 0 ? "exact" : "x");
          if (error != 0) label.append(std::to_string(1.0 + error), 0, 4);
          pt.label = std::move(label);
          pt.config = paper_platform();
          pt.config.estimate_error = error;
          spec.points.push_back(std::move(pt));
        }
        spec.notes =
            "reading: workqueue and rest.2 never read estimates (columns "
            "constant).\nxsufferage tolerates static per-site estimate bias "
            "(within-site rankings are\nscale-invariant) and only extreme "
            "error misroutes tasks; the case against\nestimate-driven "
            "scheduling is availability/temporal variance, not static "
            "bias.";
        return spec;
      });
}

}  // namespace wcs::scenario::detail
