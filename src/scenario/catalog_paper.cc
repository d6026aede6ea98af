// Paper-series scenarios: Tables 2/3 and Figures 3–8 (DESIGN.md §4).
#include <iomanip>
#include <string>

#include "common/csv.h"
#include "scenario/catalog.h"
#include "workload/job.h"

namespace wcs::scenario::detail {

grid::GridConfig paper_platform() {
  grid::GridConfig c;
  c.tiers.num_sites = 10;
  c.tiers.workers_per_site = 1;
  c.capacity_files = 6000;
  return c;
}

workload::CoaddParams paper_workload(const BuildOptions& options) {
  workload::CoaddParams p = workload::CoaddParams::paper_6000();
  p.num_tasks = options.tasks;
  return p;
}

namespace {

ScenarioSpec sweep_base(const char* name, const BuildOptions& options) {
  ScenarioSpec spec;
  spec.name = name;
  spec.workload.coadd = paper_workload(options);
  spec.schedulers = sched::SchedulerSpec::paper_algorithms();
  return spec;
}

// Figures 4/5 share the capacity axis (paper Sec. 5.4).
std::vector<Point> capacity_points() {
  std::vector<Point> points;
  for (std::size_t cap : {3000u, 6000u, 15000u, 30000u}) {
    Point pt;
    pt.x = static_cast<double>(cap);
    pt.label = std::to_string(cap);
    pt.config = paper_platform();
    pt.config.capacity_files = cap;
    points.push_back(std::move(pt));
  }
  return points;
}

void register_table2(const char* name) {
  register_scenario(
      name, "Table 2: Coadd workload characteristics (no simulations)",
      [name = std::string(name)](const BuildOptions& options) {
        ScenarioSpec spec;
        spec.name = name;
        spec.title = "Table 2: Coadd workload characteristics";
        spec.x_axis = "tasks";
        spec.metric_name = "files per task";
        spec.workload.coadd = paper_workload(options);
        spec.stats = [](const workload::Job& job, std::ostream& out,
                        const std::optional<std::string>& csv_path) {
          workload::JobStats stats = workload::compute_stats(job);
          out << "Table 2. Characteristics of Coadd with " << stats.num_tasks
              << " tasks (synthetic generator; paper values in "
                 "parentheses)\n\n";
          auto row = [&out](const std::string& label, double ours,
                            const char* paper) {
            out << "  " << std::left << std::setw(44) << label << std::right
                << std::setw(12) << std::fixed << std::setprecision(4) << ours
                << "   (paper: " << paper << ")\n";
          };
          row("Total number of files",
              static_cast<double>(stats.distinct_files), "53390");
          row("Max number of files needed by a task",
              static_cast<double>(stats.max_files_per_task), "101");
          row("Min number of files needed by a task",
              static_cast<double>(stats.min_files_per_task), "36");
          row("Average number of files needed by a task",
              stats.avg_files_per_task, "78.4327");
          if (csv_path) {
            CsvWriter csv(*csv_path);
            csv.header({"metric", "value"});
            csv.row("total_files", stats.distinct_files);
            csv.row("max_files_per_task", stats.max_files_per_task);
            csv.row("min_files_per_task", stats.min_files_per_task);
            csv.row("avg_files_per_task", stats.avg_files_per_task);
          }
          return StatsResult{static_cast<double>(stats.num_tasks),
                             std::to_string(stats.num_tasks) + " tasks"};
        };
        return spec;
      });
}

void register_fig3(const char* name) {
  register_scenario(
      name, "Figure 3: Coadd file-access CDF (no simulations)",
      [name = std::string(name)](const BuildOptions& options) {
        ScenarioSpec spec;
        spec.name = name;
        spec.title = "Figure 3: Coadd file access distribution";
        spec.x_axis = "min_refs";
        spec.metric_name = "fraction of files";
        spec.workload.coadd = paper_workload(options);
        spec.stats = [](const workload::Job& job, std::ostream& out,
                        const std::optional<std::string>& csv_path) {
          workload::JobStats stats = workload::compute_stats(job);
          out << "Figure 3. File access distribution of Coadd with "
              << stats.num_tasks << " tasks\n";
          out << "(fraction of files accessed by >= x tasks; paper: ~0.85 "
                 "at x = 6)\n\n";
          out << "  x (refs)   % of files (cumulative)\n";
          for (std::size_t x = 12; x >= 1; --x) {
            double frac = stats.refs_cdf.fraction_at_least(x) * 100.0;
            out << "  " << std::setw(8) << x << "   " << std::setw(8)
                << std::fixed << std::setprecision(2) << frac << "  |";
            int bars = static_cast<int>(frac / 2.0);
            for (int b = 0; b < bars; ++b) out << '#';
            out << '\n';
          }
          out << "\n  fraction >= 6 refs: "
              << stats.refs_cdf.fraction_at_least(6) << "  (paper: ~0.85)\n";
          if (csv_path) {
            CsvWriter csv(*csv_path);
            csv.header({"min_refs", "fraction_of_files"});
            for (std::size_t x = 1; x <= 20; ++x)
              csv.row(x, stats.refs_cdf.fraction_at_least(x));
          }
          return StatsResult{6, ">=6 refs"};
        };
        return spec;
      });
}

}  // namespace

void register_paper_scenarios() {
  register_table2("table2_workload");
  register_fig3("fig3_cdf");

  register_scenario(
      "fig4_capacity", "Figure 4: makespan vs data-server capacity",
      [](const BuildOptions& options) {
        ScenarioSpec spec = sweep_base("fig4_capacity", options);
        spec.title = "Figure 4: makespan vs data-server capacity";
        spec.x_axis = "capacity_files";
        spec.metric = Metric::kMakespanMinutes;
        spec.metric_name = "makespan (minutes)";
        spec.points = capacity_points();
        return spec;
      });

  register_scenario(
      "fig5_transfers", "Figure 5: file transfers vs data-server capacity",
      [](const BuildOptions& options) {
        ScenarioSpec spec = sweep_base("fig5_transfers", options);
        spec.title = "Figure 5: file transfers vs data-server capacity";
        spec.x_axis = "capacity_files";
        spec.metric = Metric::kTransfersPerSite;
        spec.metric_name = "file transfers per data server";
        spec.points = capacity_points();
        return spec;
      });

  register_scenario(
      "fig6_workers", "Figure 6: makespan vs workers per site",
      [](const BuildOptions& options) {
        ScenarioSpec spec = sweep_base("fig6_workers", options);
        spec.title = "Figure 6: makespan vs workers per site";
        spec.x_axis = "workers_per_site";
        spec.metric = Metric::kMakespanMinutes;
        spec.metric_name = "makespan (minutes)";
        std::vector<int> counts{2, 3, 4, 5, 6, 7, 8, 9, 10};
        if (options.fast) counts = {2, 4, 6, 8, 10};
        for (int workers : counts) {
          Point pt;
          pt.x = workers;
          pt.label = std::to_string(workers);
          pt.config = paper_platform();
          pt.config.tiers.workers_per_site = workers;
          spec.points.push_back(std::move(pt));
        }
        return spec;
      });

  register_scenario(
      "table3_contention",
      "Table 3: rest metric per-site waiting/transfer vs workers",
      [](const BuildOptions& options) {
        ScenarioSpec spec = sweep_base("table3_contention", options);
        spec.title = "Table 3: rest metric per-site contention";
        spec.x_axis = "workers_per_site";
        spec.metric = Metric::kWaitingHoursPerSite;
        spec.metric_name = "waiting (hours)";
        sched::SchedulerSpec rest;
        rest.algorithm = sched::Algorithm::kRest;
        spec.schedulers = {rest};
        for (int workers : {2, 4, 6, 8}) {
          Point pt;
          pt.x = workers;
          pt.label = std::to_string(workers) + " workers";
          pt.config = paper_platform();
          pt.config.tiers.workers_per_site = workers;
          spec.points.push_back(std::move(pt));
        }
        spec.notes =
            "reading: transfers and transfer time fall monotonically with "
            "more workers\n(more sharing), but waiting time peaks at an "
            "intermediate worker count — the\nserial data server's queue is "
            "the bottleneck (paper Sec. 5.5).";
        return spec;
      });

  register_scenario(
      "fig7_sites", "Figure 7: makespan vs number of sites",
      [](const BuildOptions& options) {
        ScenarioSpec spec = sweep_base("fig7_sites", options);
        spec.title = "Figure 7: makespan vs number of sites";
        spec.x_axis = "num_sites";
        spec.metric = Metric::kMakespanMinutes;
        spec.metric_name = "makespan (minutes)";
        std::vector<int> counts{10, 14, 18, 22, 26};
        if (options.fast) counts = {10, 18, 26};
        for (int sites : counts) {
          Point pt;
          pt.x = sites;
          pt.label = std::to_string(sites);
          pt.config = paper_platform();
          pt.config.tiers.num_sites = sites;
          spec.points.push_back(std::move(pt));
        }
        return spec;
      });

  register_scenario(
      "fig8_filesize", "Figure 8: makespan vs file size",
      [](const BuildOptions& options) {
        ScenarioSpec spec = sweep_base("fig8_filesize", options);
        spec.title = "Figure 8: makespan vs file size";
        spec.x_axis = "file_size";
        spec.metric = Metric::kMakespanMinutes;
        spec.metric_name = "makespan (minutes)";
        for (double mb : {5.0, 25.0, 50.0}) {
          Point pt;
          pt.x = mb;
          pt.label = std::to_string(static_cast<int>(mb)) + "MB";
          pt.config = paper_platform();
          pt.file_size = megabytes(mb);
          spec.points.push_back(std::move(pt));
        }
        return spec;
      });
}

}  // namespace wcs::scenario::detail

namespace wcs::scenario {

void register_builtin_scenarios() {
  static const bool registered = [] {
    detail::register_paper_scenarios();
    detail::register_ablation_scenarios();
    detail::register_extension_scenarios();
    detail::register_open_scenarios();
    detail::register_data_scenarios();
    return true;
  }();
  (void)registered;
}

}  // namespace wcs::scenario
