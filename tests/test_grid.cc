// Integration tests: full simulations on small workloads, timing
// hand-checks, determinism, and engine bookkeeping.
#include <gtest/gtest.h>

#include "grid/experiment.h"
#include "grid/grid_simulation.h"
#include "workload/coadd.h"
#include "workload/generators.h"

namespace wcs::grid {
namespace {

// Zero-jitter platform so timing is exactly computable.
GridConfig exact_config(int sites, int workers_per_site,
                        std::size_t capacity) {
  GridConfig c;
  c.tiers.num_sites = sites;
  c.tiers.workers_per_site = workers_per_site;
  c.tiers.jitter = 0.0;
  c.tiers.seed = 1;
  c.capacity_files = capacity;
  return c;
}

workload::Job tiny_job(std::size_t tasks, std::size_t files_per_task,
                       Bytes file_size = megabytes(25),
                       double mflop = 1e-6) {
  workload::Job job;
  job.set_name("tiny");
  job.catalog =
      workload::FileCatalog(tasks * files_per_task, file_size);
  std::vector<FileId> files;
  for (std::size_t i = 0; i < tasks; ++i) {
    files.clear();
    for (std::size_t f = 0; f < files_per_task; ++f)
      files.push_back(FileId(
          static_cast<FileId::underlying_type>(i * files_per_task + f)));
    job.add_task(files, mflop);  // default mflop: network-only timing
  }
  return job;
}

sched::SchedulerSpec spec_of(sched::Algorithm a, int n = 1) {
  sched::SchedulerSpec s;
  s.algorithm = a;
  s.choose_n = n;
  return s;
}

TEST(GridTiming, SingleWorkerSequentialTransfers) {
  // 1 site, 1 worker, 2 disjoint 1-file tasks of 25 MB over a 2 Mbit/s
  // uplink (jitter 0): each transfer is exactly 100 s; control/flow
  // latencies total ~0.28 s.
  auto job = tiny_job(2, 1);
  GridConfig c = exact_config(1, 1, 100);
  GridSimulation sim(c, job, sched::make_scheduler(
                                 spec_of(sched::Algorithm::kWorkqueue)));
  auto r = sim.run();
  EXPECT_EQ(r.tasks_completed, 2u);
  EXPECT_NEAR(r.makespan_s, 200.0, 1.0);
  EXPECT_GT(r.makespan_s, 200.0);  // latencies are nonzero
  EXPECT_EQ(r.total_file_transfers(), 2u);
  EXPECT_NEAR(r.total_bytes_transferred(), 2 * 25e6, 1);
}

TEST(GridTiming, CachedSecondTaskSkipsTransfer) {
  // Two tasks over the SAME file: second is a pure cache hit.
  workload::Job job = tiny_job(1, 1);
  job.add_task({FileId(0)}, 1e-6);  // same file as task 0
  GridConfig c = exact_config(1, 1, 100);
  GridSimulation sim(c, job, sched::make_scheduler(
                                 spec_of(sched::Algorithm::kWorkqueue)));
  auto r = sim.run();
  EXPECT_EQ(r.total_file_transfers(), 1u);
  EXPECT_EQ(r.total_cache_hits(), 1u);
  EXPECT_NEAR(r.makespan_s, 100.0, 1.0);
}

TEST(GridTiming, TwoSitesTransferInParallel) {
  auto job = tiny_job(2, 1);
  GridConfig c = exact_config(2, 1, 100);
  GridSimulation sim(
      c, job, sched::make_scheduler(spec_of(sched::Algorithm::kRest)));
  auto r = sim.run();
  // Each site pulls one file over its own uplink concurrently.
  EXPECT_NEAR(r.makespan_s, 100.0, 1.0);
}

TEST(Grid, ComputeTimeAddsToMakespan) {
  // 1e9 MFLOP dominates on any top500/100 worker.
  auto job = tiny_job(1, 1, megabytes(25), 1e9);
  GridConfig c = exact_config(1, 1, 100);
  GridSimulation sim(c, job, sched::make_scheduler(
                                 spec_of(sched::Algorithm::kWorkqueue)));
  auto r = sim.run();
  EXPECT_GT(r.makespan_s, 100.0 + 300.0);  // transfer + real compute
}

TEST(Grid, InvalidCapacityRejected) {
  auto job = tiny_job(1, 5);
  GridConfig c = exact_config(1, 1, /*capacity=*/3);  // < 5 files needed
  EXPECT_THROW(GridSimulation(c, job,
                              sched::make_scheduler(
                                  spec_of(sched::Algorithm::kWorkqueue))),
               std::logic_error);
}

TEST(Grid, MissingBlockStoreRejected) {
  auto job = tiny_job(1, 5);
  GridConfig c = exact_config(1, 1, /*capacity=*/10);
  c.block_store.reset();
  try {
    validate_config(c, job);
    ADD_FAILURE() << "validate_config accepted block_store = nullopt";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("block_store must be set"),
              std::string::npos)
        << e.what();
  }
}

TEST(Grid, PinnedWorkingSetValidationCountsWorkers) {
  auto job = tiny_job(4, 5);
  GridConfig c = exact_config(1, 3, /*capacity=*/14);  // 3 workers x 5 = 15
  EXPECT_THROW(GridSimulation(c, job,
                              sched::make_scheduler(
                                  spec_of(sched::Algorithm::kWorkqueue))),
               std::logic_error);
  c.capacity_files = 15;
  EXPECT_NO_THROW(GridSimulation(c, job,
                                 sched::make_scheduler(spec_of(
                                     sched::Algorithm::kWorkqueue))));
}

TEST(Grid, RunIsSingleShot) {
  auto job = tiny_job(1, 1);
  GridConfig c = exact_config(1, 1, 10);
  GridSimulation sim(c, job, sched::make_scheduler(
                                 spec_of(sched::Algorithm::kWorkqueue)));
  (void)sim.run();
  EXPECT_THROW((void)sim.run(), std::logic_error);
}

TEST(Grid, DeterministicAcrossRuns) {
  workload::CoaddParams cp;
  cp.num_tasks = 150;
  auto job = workload::generate_coadd(cp);
  GridConfig c = exact_config(3, 2, 400);
  c.tiers.jitter = 0.25;
  for (sched::Algorithm a :
       {sched::Algorithm::kRest, sched::Algorithm::kStorageAffinity}) {
    auto r1 = run_once(c, job, spec_of(a), /*topology_seed=*/3);
    auto r2 = run_once(c, job, spec_of(a), /*topology_seed=*/3);
    EXPECT_DOUBLE_EQ(r1.makespan_s, r2.makespan_s);
    EXPECT_EQ(r1.total_file_transfers(), r2.total_file_transfers());
    EXPECT_EQ(r1.events_executed, r2.events_executed);
  }
}

TEST(Grid, RandomizedAlgorithmsAreSeedDeterministic) {
  workload::CoaddParams cp;
  cp.num_tasks = 100;
  auto job = workload::generate_coadd(cp);
  GridConfig c = exact_config(2, 1, 400);
  sched::SchedulerSpec s = spec_of(sched::Algorithm::kRest, 2);
  s.seed = 77;
  auto r1 = run_once(c, job, s, 1);
  auto r2 = run_once(c, job, s, 1);
  EXPECT_DOUBLE_EQ(r1.makespan_s, r2.makespan_s);
}

TEST(Grid, TopologySeedChangesOutcome) {
  workload::CoaddParams cp;
  cp.num_tasks = 100;
  auto job = workload::generate_coadd(cp);
  GridConfig c = exact_config(2, 1, 400);
  c.tiers.jitter = 0.25;
  auto r1 = run_once(c, job, spec_of(sched::Algorithm::kRest), 1);
  auto r2 = run_once(c, job, spec_of(sched::Algorithm::kRest), 2);
  EXPECT_NE(r1.makespan_s, r2.makespan_s);
}

TEST(Grid, NoEvictionWhenCapacityCoversCatalog) {
  workload::CoaddParams cp;
  cp.num_tasks = 80;
  auto job = workload::generate_coadd(cp);
  GridConfig c = exact_config(2, 1, job.catalog.num_files());
  auto r = run_once(c, job, spec_of(sched::Algorithm::kRest), 1);
  EXPECT_EQ(r.total_evictions(), 0u);
  // Without eviction, each site transfers each of its distinct files
  // exactly once: transfers + hits == total file requests.
  std::size_t total_requests = 0;
  for (const workload::Task& t : job.tasks()) total_requests += t.files.size();
  EXPECT_EQ(r.total_file_transfers() + r.total_cache_hits(), total_requests);
}

TEST(Grid, SmallCapacityCausesEvictionsAndRefetches) {
  workload::CoaddParams cp;
  cp.num_tasks = 80;
  auto job = workload::generate_coadd(cp);
  GridConfig big = exact_config(1, 1, job.catalog.num_files());
  GridConfig small = exact_config(1, 1, 110);  // just above max task size
  auto rb = run_once(big, job, spec_of(sched::Algorithm::kRest), 1);
  auto rs = run_once(small, job, spec_of(sched::Algorithm::kRest), 1);
  EXPECT_GT(rs.total_evictions(), 0u);
  EXPECT_GT(rs.total_file_transfers(), rb.total_file_transfers());
  EXPECT_GE(rs.makespan_s, rb.makespan_s);
}

TEST(Grid, StorageAffinityReplicatesAndCancels) {
  workload::CoaddParams cp;
  cp.num_tasks = 120;
  auto job = workload::generate_coadd(cp);
  GridConfig c = exact_config(3, 2, 400);
  auto r = run_once(c, job, spec_of(sched::Algorithm::kStorageAffinity), 1);
  EXPECT_EQ(r.tasks_completed, 120u);
  // With multiple workers per site the tail produces idle workers, so
  // replication must have kicked in, and every completed task's sibling
  // replicas were cancelled.
  EXPECT_GT(r.replicas_started, 0u);
  EXPECT_EQ(r.assignments, 120u + r.replicas_started);
  EXPECT_GE(r.replicas_started, r.replicas_cancelled);
}

TEST(Grid, WorkerCentricAssignsEachTaskOnce) {
  workload::CoaddParams cp;
  cp.num_tasks = 100;
  auto job = workload::generate_coadd(cp);
  GridConfig c = exact_config(2, 2, 400);
  for (auto a : {sched::Algorithm::kOverlap, sched::Algorithm::kRest,
                 sched::Algorithm::kCombined}) {
    auto r = run_once(c, job, spec_of(a), 1);
    EXPECT_EQ(r.assignments, 100u);
    EXPECT_EQ(r.replicas_started, 0u);
    EXPECT_EQ(r.tasks_completed, 100u);
  }
}

TEST(Grid, MakespanIsLastCompletion) {
  auto job = tiny_job(3, 1);
  GridConfig c = exact_config(1, 1, 10);
  GridSimulation sim(c, job, sched::make_scheduler(
                                 spec_of(sched::Algorithm::kWorkqueue)));
  auto r = sim.run();
  EXPECT_NEAR(r.makespan_s, 300.0, 2.0);
  EXPECT_EQ(r.sites.size(), 1u);
  EXPECT_EQ(r.sites[0].batches_served, 3u);
}

// --- Experiment runner ----------------------------------------------------

TEST(Experiment, AveragedOverSeeds) {
  workload::CoaddParams cp;
  cp.num_tasks = 60;
  auto job = workload::generate_coadd(cp);
  GridConfig c = exact_config(2, 1, 300);
  c.tiers.jitter = 0.25;
  std::vector<std::uint64_t> seeds{1, 2, 3};
  auto avg = run_averaged(c, job, spec_of(sched::Algorithm::kRest), seeds);
  EXPECT_EQ(avg.runs, 3u);
  EXPECT_GT(avg.makespan_minutes, 0.0);
  EXPECT_LE(avg.makespan_minutes_min, avg.makespan_minutes);
  EXPECT_GE(avg.makespan_minutes_max, avg.makespan_minutes);
  EXPECT_EQ(avg.scheduler, "rest");
}

TEST(Experiment, MatrixRunsAllSpecs) {
  workload::CoaddParams cp;
  cp.num_tasks = 40;
  auto job = workload::generate_coadd(cp);
  GridConfig c = exact_config(2, 1, 300);
  std::vector<sched::SchedulerSpec> specs = {
      spec_of(sched::Algorithm::kWorkqueue),
      spec_of(sched::Algorithm::kRest)};
  std::vector<std::uint64_t> seeds{1};
  int progress_calls = 0;
  auto rows = run_matrix(c, job, specs, seeds,
                         [&](const std::string&) { ++progress_calls; });
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].scheduler, "workqueue");
  EXPECT_EQ(rows[1].scheduler, "rest");
  EXPECT_EQ(progress_calls, 2);
}

TEST(Experiment, DefaultSeedsArePaper5) {
  EXPECT_EQ(default_topology_seeds().size(), 5u);
}

TEST(Experiment, PaperAlgorithmListMatchesSection53) {
  auto specs = sched::SchedulerSpec::paper_algorithms();
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(specs[0].name(), "storage-affinity");
  EXPECT_EQ(specs[1].name(), "overlap");
  EXPECT_EQ(specs[2].name(), "rest");
  EXPECT_EQ(specs[3].name(), "combined");
  EXPECT_EQ(specs[4].name(), "rest.2");
  EXPECT_EQ(specs[5].name(), "combined.2");
}

}  // namespace
}  // namespace wcs::grid
