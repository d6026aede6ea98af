// Timed and traced passes over one workload, the correctness gate, and
// the metrics the benchmark reports.
//
// A pass runs every simulation of the workload once, one after another
// on this thread (a closed loop with one caller). An untraced pass runs
// the bare program; a traced pass wraps the scheduler in
// TracingScheduler and turns on the program's phase profiler.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "layer_trace.h"
#include "metrics/results.h"
#include "workloads.h"

namespace wcs::perfbench {

// The simulated outcome of one simulation. Deterministic in the seed.
struct Outcome {
  std::size_t tasks_completed = 0;
  double makespan_s = 0;
  std::uint64_t transfers = 0;  // demand file transfers
  double wire_bytes = 0;        // demand plus replication
  // Open workloads: the worst tenant's median and p99 sojourn (0 when
  // closed).
  double sojourn_p50_s = 0;
  double sojourn_p99_s = 0;

  bool operator==(const Outcome&) const = default;
};

struct SimMeasure {
  std::string label;
  bool ok = false;
  std::string error;  // exception text when !ok
  Outcome outcome;
  metrics::RunResult result;
  std::size_t num_files = 0;
  double gen_s = 0;        // workload generation
  double construct_s = 0;  // scheduler + GridSimulation construction
  double run_s = 0;        // GridSimulation::run()
  double setup_rss_mb = 0;      // resident after construction
  double construct_rss_mb = 0;  // growth across construction
  std::size_t peak_live_events = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t flows_cancelled = 0;
  LayerTotals layers;  // traced passes only

  [[nodiscard]] double setup_s() const { return gen_s + construct_s; }
};

struct PassMeasure {
  bool traced = false;
  std::vector<SimMeasure> sims;

  [[nodiscard]] double setup_s() const;
  [[nodiscard]] double run_s() const;
  [[nodiscard]] double wall_s() const { return setup_s() + run_s(); }
};

[[nodiscard]] PassMeasure run_pass(const WorkloadPlan& plan, bool traced);

// Route set-up on its own: build_tiers_topology with the workload's
// TiersParams, then path_latency(worker, scheduler) for every worker.
struct RouteMeasure {
  double topology_s = 0;
  double route_query_s = 0;
  double route_rss_mb = 0;
};
[[nodiscard]] RouteMeasure measure_routes(const WorkloadPlan& plan);

// A reported metric: the median of `samples` values.
struct Metric {
  std::string unit;
  double value = 0;
  std::size_t samples = 0;
};
using MetricMap = std::map<std::string, Metric>;

[[nodiscard]] MetricMap end_to_end_metrics(
    const WorkloadPlan& plan, const std::vector<PassMeasure>& untraced,
    std::uint64_t attempted, std::uint64_t failed);
[[nodiscard]] MetricMap layer_metrics(
    const std::vector<PassMeasure>& traced,
    const std::vector<PassMeasure>& untraced, const RouteMeasure& routes);

// The end-to-end metrics the final JSON line carries (the table prints
// every metric): those defined, and never 0, on every workload.
[[nodiscard]] const std::vector<std::string>& reported_end_to_end();

// Correctness gate. Returns one message per failed simulation of `pass`:
// it lost tasks, or threw, or its outcome differs from `baseline` (the
// first untraced pass of this invocation), or - at the default seed and
// size - from the pinned reference.
[[nodiscard]] std::vector<std::string> check_pass(
    const WorkloadPlan& plan, const PassMeasure& pass,
    const PassMeasure* baseline);

// Names: [A-Za-z0-9_.-]+. Units: [A-Za-z0-9_/%.-]+.
[[nodiscard]] bool valid_metric_name(const std::string& name);
[[nodiscard]] bool valid_unit(const std::string& unit);

// Empty when this build may be timed; otherwise why not.
[[nodiscard]] std::string untimeable_build_reason();
[[nodiscard]] const char* build_type();

}  // namespace wcs::perfbench
