// The benchmark's three workloads, each a closed loop of simulations run
// one after another. Everything random is derived from one workload
// seed: the task generator, the arrival process, the topology, worker
// speeds, the randomized ChooseTask / WRR streams and replication.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "grid/config.h"
#include "sched/factory.h"
#include "workload/arrivals.h"

namespace wcs::perfbench {

inline constexpr std::uint64_t kDefaultSeed = 1;

// One simulation of a workload: a scheduler on a platform.
struct SimSpec {
  // Row label: the scheduler's name, "_wrr" appended under the tenant
  // layer, restricted to [A-Za-z0-9_.-].
  std::string label;
  sched::SchedulerSpec scheduler;
  grid::GridConfig config;
};

struct WorkloadPlan {
  std::string name;
  std::uint64_t seed = kDefaultSeed;
  std::size_t tasks = 0;  // tasks per simulation
  bool default_size = true;
  std::vector<SimSpec> sims;

  // Generates the simulations' input (one call per simulation, timed as
  // part of set-up).
  [[nodiscard]] workload::Workload generate() const;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

// `tasks` = 0 keeps the workload's standard size; any other value
// resizes it (self-tests) and disables the pinned-reference check.
[[nodiscard]] WorkloadPlan make_plan(const std::string& name,
                                     std::uint64_t seed,
                                     std::size_t tasks = 0);

// Row labels of every workload, in workload then simulation order,
// without duplicates. The traced pass reports a row metric for each.
[[nodiscard]] std::vector<std::string> all_row_labels();

}  // namespace wcs::perfbench
