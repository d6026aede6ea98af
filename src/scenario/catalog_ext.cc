// Extension scenarios E1/E2: claims the paper states but does not
// evaluate (replication orthogonality, Sec. 3.1/3.2; resource
// unreliability, Sec. 1).
#include <string>

#include "replication/data_replicator.h"
#include "scenario/catalog.h"

namespace wcs::scenario::detail {

void register_extension_scenarios() {
  // E1: replication mechanisms. Task-centric scheduling NEEDS auxiliary
  // mechanisms (data/task replication) to fix the imbalance its
  // assignment creates; for worker-centric scheduling both are
  // orthogonal ("they might help ... but are not necessary"). Each
  // variant pairs one scheduler with one platform, so rows are points
  // with per-point scheduler overrides rather than a spec-level set.
  register_scenario(
      "ext_replication", "E1: data/task replication mechanisms",
      [](const BuildOptions& options) {
        ScenarioSpec spec;
        spec.name = "ext_replication";
        spec.title = "Extension E1: replication mechanisms";
        spec.x_axis = "variant";
        spec.metric = Metric::kMakespanMinutes;
        spec.metric_name = "makespan (minutes)";
        spec.workload.coadd = paper_workload(options);

        auto rest = [](bool task_replication) {
          sched::SchedulerSpec s;
          s.algorithm = sched::Algorithm::kRest;
          s.choose_n = 2;
          s.task_replication = task_replication;
          return s;
        };
        sched::SchedulerSpec sa;
        sa.algorithm = sched::Algorithm::kStorageAffinity;

        struct Variant {
          std::string label;
          sched::SchedulerSpec spec;
          bool data_replication;
        };
        const std::vector<Variant> variants = {
            {"storage-affinity", sa, false},
            {"storage-affinity +data-repl", sa, true},
            {"rest.2", rest(false), false},
            {"rest.2 +data-repl", rest(false), true},
            {"rest.2 +task-repl", rest(true), false},
            {"rest.2 +both", rest(true), true},
        };
        for (std::size_t i = 0; i < variants.size(); ++i) {
          const Variant& v = variants[i];
          Point pt;
          pt.x = static_cast<double>(i);
          pt.label = v.label;
          pt.config = paper_platform();
          if (v.data_replication) {
            replication::DataReplicatorParams rp;
            rp.popularity_threshold = 8;
            rp.placement = replication::Placement::kLeastLoaded;
            pt.config.replication = rp;
          }
          pt.schedulers = {v.spec};
          pt.row_labels = {v.label};  // distinguish ±replication variants
          spec.points.push_back(std::move(pt));
        }
        spec.notes =
            "reading: data replication should recover a chunk of storage "
            "affinity's gap;\nfor rest.2 both mechanisms should move the "
            "needle far less (orthogonality).";
        return spec;
      });

  // E2: scheduling under worker churn. The paper motivates
  // worker-centric scheduling partly by grid-resource unreliability
  // (PlanetLab's "seven deadly sins") but evaluates only stable
  // platforms; this scenario injects exponential crash/recover churn and
  // sweeps the mean uptime.
  register_scenario(
      "ext_churn", "E2: makespan under worker churn",
      [](const BuildOptions& options) {
        ScenarioSpec spec;
        spec.name = "ext_churn";
        spec.title = "Extension E2: makespan under worker churn";
        spec.x_axis = "mean_uptime_h";
        spec.metric = Metric::kMakespanMinutes;
        spec.metric_name = "makespan (minutes)";
        spec.workload.coadd = paper_workload(options);

        sched::SchedulerSpec sa;
        sa.algorithm = sched::Algorithm::kStorageAffinity;
        sched::SchedulerSpec rest2;
        rest2.algorithm = sched::Algorithm::kRest;
        rest2.choose_n = 2;
        sched::SchedulerSpec rest2_repl = rest2;
        rest2_repl.task_replication = true;
        spec.schedulers = {sa, rest2, rest2_repl};

        // Mean uptimes, in hours of simulated time (0 = no churn); mean
        // downtime = uptime / 6.
        for (double up_h : {0.0, 168.0, 48.0, 12.0}) {
          Point pt;
          pt.x = up_h;
          pt.label = up_h == 0
                         ? std::string("none")
                         : std::to_string(static_cast<int>(up_h)) + "h";
          pt.config = paper_platform();
          if (up_h > 0) {
            grid::GridConfig::ChurnParams churn;
            churn.mean_uptime_s = hours(up_h);
            churn.mean_downtime_s = hours(up_h) / 6.0;
            pt.config.churn = churn;
          }
          spec.points.push_back(std::move(pt));
        }
        spec.notes =
            "reading: pull scheduling degrades gracefully; the task-centric "
            "baseline pays\nmore per crash (whole queues lost + active "
            "re-placement), and task\nreplication recovers part of the tail "
            "for the pull scheduler.";
        return spec;
      });
}

}  // namespace wcs::scenario::detail
