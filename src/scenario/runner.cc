#include "scenario/runner.h"

#include <cstdint>
#include <iostream>
#include <utility>

#include "common/check.h"
#include "common/csv.h"
#include "grid/experiment.h"
#include "grid/grid_simulation.h"
#include "obs/run_report.h"
#include "workload/registry.h"

namespace wcs::scenario {

namespace {

// One row of a figure series: x value + averaged results per row label.
struct SweepPoint {
  double x = 0;
  std::string label;
  double wall_seconds = 0;
  std::vector<metrics::AveragedResult> rows;
};

double elapsed_s(const RunOptions& options) {
  // detlint: nondet-source -- run-harness wall-clock timing, reported as metadata only
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       options.started)
      .count();
}

// The workload a sweep point runs. File size and workload overrides live
// in the catalog, so those axes regenerate the workload per point (same
// seed: identical task -> file structure; only the overridden knob
// changes). Empty = the spec-level workload.
std::optional<workload::Workload> point_workload(const ScenarioSpec& spec,
                                                 const Point& point) {
  if (!point.file_size && !point.workload) return std::nullopt;
  workload::GeneratorSpec sized =
      point.workload ? *point.workload : spec.workload;
  if (point.file_size) sized.coadd.file_size = *point.file_size;
  return workload::build_workload(sized);
}

const std::vector<sched::SchedulerSpec>& point_schedulers(
    const ScenarioSpec& spec, const Point& point) {
  return point.schedulers.empty() ? spec.schedulers : point.schedulers;
}

// --trace-out support: run ONE representative simulation (the first
// point's platform, workload and first scheduler, seed 1) with full
// observability and dump its Chrome trace. Kept out of the parallel sweep
// so concurrent runs never share a trace file.
std::optional<obs::PhaseProfiler> trace_representative_run(
    const ScenarioSpec& spec, const RunOptions& options,
    const workload::Workload& base_workload, std::ostream& out,
    std::ostream& err) {
  if (!options.trace_out) return std::nullopt;
  const Point& point = spec.points.front();
  grid::GridConfig config = point.config;
  config.audit = config.audit || options.audit;
  config.obs = obs::Options::all();
  config.obs.trace_path = *options.trace_out;
  config.tiers.seed = 1;
  const sched::SchedulerSpec& scheduler =
      point_schedulers(spec, point).front();
  err << "  [traced run: " << scheduler.name() << "]\n";
  const std::optional<workload::Workload> regenerated =
      point_workload(spec, point);
  const workload::Workload& workload =
      regenerated ? *regenerated : base_workload;
  const workload::ArrivalSchedule* arrivals =
      workload.open() ? &workload.arrivals : nullptr;
  grid::GridSimulation sim(config, workload,
                           sched::make_scheduler(scheduler, arrivals));
  (void)sim.run();
  out << "\nChrome trace written to " << *options.trace_out << '\n';
  return *sim.observability()->profiler();
}

void write_report(const ScenarioSpec& spec,
                  const std::vector<SweepPoint>& points,
                  const RunOptions& options, const obs::PhaseProfiler* phases,
                  std::ostream& out) {
  if (!options.report_path) return;
  obs::RunReport report;
  report.bench = options.report_name;
  report.title = spec.title;
  report.x_axis = spec.x_axis;
  report.metric = spec.metric_name;
  report.config.tasks = options.tasks;
  report.config.seeds = options.seeds;
  report.config.jobs = options.jobs;
  report.config.fast = options.fast;
  report.config.audit = options.audit;
  report.config.trace = options.trace_out.has_value();
  for (const SweepPoint& pt : points) {
    obs::ReportPoint rp;
    rp.x = pt.x;
    rp.x_label = pt.label;
    rp.wall_seconds = pt.wall_seconds;
    for (const auto& r : pt.rows) rp.rows.push_back(obs::ReportRow::from(r));
    report.points.push_back(std::move(rp));
  }
  report.total_wall_seconds = elapsed_s(options);
  report.phases = phases;
  report.write(*options.report_path);
  out << "Run report written to " << *options.report_path << '\n';
}

int run_stats_scenario(const ScenarioSpec& spec, const RunOptions& options,
                       std::ostream& out) {
  const workload::Workload wl = workload::build_workload(spec.workload);
  StatsResult sr = spec.stats(wl.job, out, options.csv_path);

  // No simulations here: the run report records config/wall time plus a
  // placeholder row so the schema-checked artifact set stays complete.
  metrics::AveragedResult row;
  row.scheduler = "workload-stats";
  row.runs = 1;
  SweepPoint pt;
  pt.x = sr.x;
  pt.label = sr.x_label;
  pt.wall_seconds = elapsed_s(options);
  pt.rows.push_back(std::move(row));
  write_report(spec, {pt}, options, nullptr, out);
  return 0;
}

}  // namespace

int run_scenario(const ScenarioSpec& spec, const RunOptions& options) {
  std::ostream& out = options.out != nullptr ? *options.out : std::cout;
  std::ostream& err = options.err != nullptr ? *options.err : std::cerr;
  workload::register_builtin_generators();  // idempotent

  if (spec.is_stats()) return run_stats_scenario(spec, options, out);

  const workload::Workload base_workload =
      workload::build_workload(spec.workload);
  const std::vector<std::uint64_t> seeds = options.topology_seeds();

  std::vector<SweepPoint> points;
  for (const Point& point : spec.points) {
    grid::GridConfig config = point.config;
    config.audit = config.audit || options.audit;

    const std::optional<workload::Workload> regenerated =
        point_workload(spec, point);
    const workload::Workload& wl = regenerated ? *regenerated : base_workload;

    SweepPoint pt;
    pt.x = point.x;
    pt.label = point.label;
    pt.rows = grid::run_matrix(
        config, wl, point_schedulers(spec, point), seeds,
        [&](const std::string& s) {
          err << "  [" << point.label << ": " << s << "]\n";
        },
        options.jobs);
    for (std::size_t i = 0; i < point.row_labels.size(); ++i)
      pt.rows[i].scheduler = point.row_labels[i];
    pt.wall_seconds = elapsed_s(options);
    points.push_back(std::move(pt));
  }

  std::optional<obs::PhaseProfiler> phases =
      trace_representative_run(spec, options, base_workload, out, err);

  for (const SweepPoint& pt : points)
    grid::print_table(out, spec.title + " — " + spec.x_axis + " = " + pt.label,
                      pt.rows);

  out << "\nSeries (" << spec.metric_name << " vs " << spec.x_axis << "):\n";
  out << spec.x_axis;
  for (const auto& r : points.front().rows) out << '\t' << r.scheduler;
  out << '\n';
  for (const SweepPoint& pt : points) {
    out << pt.label;
    for (const auto& r : pt.rows)
      out << '\t'
          << static_cast<std::uint64_t>(metric_value(spec.metric, r) + 0.5);
    out << '\n';
  }

  if (options.csv_path) {
    CsvWriter csv(*options.csv_path);
    csv.header({spec.x_axis, "algorithm", "makespan_min", "transfers_per_site",
                "total_transfers", "gigabytes", "waiting_h_per_site",
                "transfer_h_per_site", "replicas"});
    for (const SweepPoint& pt : points)
      for (const auto& r : pt.rows)
        csv.row(pt.label, r.scheduler, r.makespan_minutes,
                r.transfers_per_site, r.total_file_transfers,
                r.total_gigabytes, r.waiting_hours_per_site,
                r.transfer_hours_per_site, r.replicas_started);
    out << "\nCSV written to " << *options.csv_path << '\n';
  }

  write_report(spec, points, options, phases ? &*phases : nullptr, out);

  if (!spec.notes.empty()) out << '\n' << spec.notes << '\n';
  return 0;
}

}  // namespace wcs::scenario
