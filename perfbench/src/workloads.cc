#include "workloads.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"
#include "workload/coadd.h"
#include "workload/generators.h"
#include "workload/open.h"

namespace wcs::perfbench {

namespace {

// Substreams of the workload seed, one per consumer, so that adding a
// consumer never shifts the draws of another.
enum Stream : std::uint64_t {
  kTasks = 1,
  kArrivals,
  kTopology,
  kWorkerSpeed,
  kScheduler,
  kReplication,
};

std::uint64_t derive(std::uint64_t seed, Stream stream) {
  return substream_seed(seed, stream);
}

// Paper platform (Table 1): 10 sites x 1 worker, 6,000-file servers.
constexpr std::size_t kPaperTasks = 6000;
// Scale platform: 100 sites x 100 workers. Set-up does not depend on the
// task count; the count is sized so one pass fits the run length.
constexpr std::size_t kScaleTasks = 10000;
constexpr std::size_t kScaleFiles = 4000;
constexpr std::size_t kScaleFilesPerTask = 3;
// Open workload: Coadd bags, tenants weighted 3:1:2, Poisson arrivals.
// Mean per-task service on one paper worker is ~7,800 s, so a per-tenant
// gap of 7800 / (10 workers * 0.9) * 3 tenants = 2,600 s offers rho 0.9.
constexpr double kOpenMeanGapS = 2600.0;
constexpr double kOpenContentOverlap = 0.5;

grid::GridConfig base_config(std::uint64_t seed, int sites,
                             int workers_per_site, std::size_t capacity) {
  grid::GridConfig c;
  c.tiers.num_sites = sites;
  c.tiers.workers_per_site = workers_per_site;
  c.tiers.seed = derive(seed, kTopology);
  c.worker_speed_seed = derive(seed, kWorkerSpeed);
  c.capacity_files = capacity;
  // Explicit, so WCS_AUDIT / WCS_OBS / WCS_TRACE cannot change what is
  // measured.
  c.audit = false;
  c.obs = obs::Options{};
  return c;
}

std::string row_label(std::string name) {
  for (char& c : name) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) c = '_';
  }
  return name;
}

SimSpec sim(sched::SchedulerSpec spec, std::uint64_t seed,
            const grid::GridConfig& config, const char* suffix = "") {
  spec.seed = derive(seed, kScheduler);
  return {row_label(spec.name() + suffix), spec, config};
}

sched::SchedulerSpec pull(sched::Algorithm algorithm, int choose_n) {
  sched::SchedulerSpec s;
  s.algorithm = algorithm;
  s.choose_n = choose_n;
  return s;
}

workload::CoaddParams coadd(std::uint64_t seed, std::size_t tasks) {
  workload::CoaddParams p = workload::CoaddParams::paper_6000();
  p.num_tasks = tasks;
  p.seed = derive(seed, kTasks);
  return p;
}

workload::OpenParams open_params(std::uint64_t seed) {
  workload::OpenParams o;
  for (std::uint32_t weight : {3u, 1u, 2u}) {
    workload::TenantInfo t;
    t.name = "tenant" + std::to_string(o.tenants.size());
    t.weight = weight;
    o.tenants.push_back(t);
  }
  o.process = workload::ArrivalProcess::kPoisson;
  o.mean_interarrival_s = kOpenMeanGapS;
  o.seed = derive(seed, kArrivals);
  return o;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper", "scale", "open"};
  return names;
}

WorkloadPlan make_plan(const std::string& name, std::uint64_t seed,
                       std::size_t tasks) {
  WorkloadPlan plan;
  plan.name = name;
  plan.seed = seed;
  plan.default_size = tasks == 0;
  if (name == "paper") {
    plan.tasks = tasks ? tasks : kPaperTasks;
    for (const sched::SchedulerSpec& s :
         sched::SchedulerSpec::paper_algorithms())
      plan.sims.push_back(sim(s, seed, base_config(seed, 10, 1, 6000)));
  } else if (name == "scale") {
    plan.tasks = tasks ? tasks : kScaleTasks;
    // Worst case pins 3 files x 100 workers = 300 of 1,200.
    plan.sims.push_back(sim(pull(sched::Algorithm::kRest, 1), seed,
                            base_config(seed, 100, 100, 1200)));
  } else if (name == "open") {
    plan.tasks = tasks ? tasks : kPaperTasks;
    grid::GridConfig c = base_config(seed, 10, 1, 6000);
    c.block_store.emplace();
    c.block_store->content_overlap = kOpenContentOverlap;
    replication::DataReplicatorParams rp;
    rp.placement = replication::Placement::kNetworkCost;
    rp.seed = derive(seed, kReplication);
    c.replication = rp;
    for (sched::Algorithm a :
         {sched::Algorithm::kRest, sched::Algorithm::kCombined})
      plan.sims.push_back(sim(pull(a, 2), seed, c, "_wrr"));
  } else {
    WCS_CHECK_MSG(false, "unknown workload '" << name << "'");
  }
  return plan;
}

workload::Workload WorkloadPlan::generate() const {
  if (name == "scale") {
    workload::GeneratorParams g;
    g.num_tasks = tasks;
    g.num_files = kScaleFiles;
    g.files_per_task = kScaleFilesPerTask;
    g.seed = derive(seed, kTasks);
    workload::Workload w;
    w.job = workload::generate_uniform(g);
    return w;
  }
  if (name == "open")
    return workload::generate_multi_tenant(coadd(seed, tasks),
                                           open_params(seed));
  workload::Workload w;
  w.job = workload::generate_coadd(coadd(seed, tasks));
  return w;
}

std::vector<std::string> all_row_labels() {
  std::vector<std::string> labels;
  for (const std::string& name : workload_names())
    for (const SimSpec& s : make_plan(name, kDefaultSeed).sims)
      if (std::find(labels.begin(), labels.end(), s.label) == labels.end())
        labels.push_back(s.label);
  return labels;
}

}  // namespace wcs::perfbench
