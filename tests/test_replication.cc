// Tests for the proactive data-replication subsystem and the
// worker-centric task-replication extension.
#include <gtest/gtest.h>

#include "grid/experiment.h"
#include "grid/grid_simulation.h"
#include "replication/data_replicator.h"
#include "uniform_block_map.h"
#include "workload/coadd.h"
#include "workload/generators.h"

namespace wcs {
namespace {

// --- DataReplicator unit tests (driven through a mini grid) --------------

struct MiniGrid {
  sim::Simulator sim;
  net::Topology topo;
  NodeId fs;
  std::vector<NodeId> ds_nodes;
  storage::BlockMap blocks = storage::uniform_block_map(50, megabytes(1));
  std::unique_ptr<net::FlowManager> flows;
  std::vector<std::unique_ptr<storage::DataServer>> servers;

  explicit MiniGrid(std::size_t sites = 2, std::size_t capacity = 20) {
    fs = topo.add_node("fs");
    for (std::size_t s = 0; s < sites; ++s) {
      NodeId n = topo.add_node("ds" + std::to_string(s));
      topo.add_link(fs, n, 1e6, 0.001);
      ds_nodes.push_back(n);
    }
    flows = std::make_unique<net::FlowManager>(sim, topo);
    for (std::size_t s = 0; s < sites; ++s)
      servers.push_back(std::make_unique<storage::DataServer>(
          SiteId(static_cast<SiteId::underlying_type>(s)), sim, *flows,
          ds_nodes[s], fs, blocks, capacity,
          storage::EvictionPolicy::kLru));
  }

  std::vector<storage::DataServer*> server_ptrs() {
    std::vector<storage::DataServer*> out;
    for (auto& s : servers) out.push_back(s.get());
    return out;
  }
};

replication::DataReplicatorParams quick_params() {
  replication::DataReplicatorParams p;
  p.popularity_threshold = 3;
  p.check_interval_s = 10;
  return p;
}

TEST(DataReplicator, TracksPopularity) {
  MiniGrid g;
  replication::DataReplicator repl(quick_params(), g.sim, *g.flows, g.fs,
                                   g.server_ptrs());
  repl.on_file_fetched(FileId(1));
  repl.on_file_fetched(FileId(1));
  repl.on_file_fetched(FileId(2));
  EXPECT_EQ(repl.popularity(FileId(1)), 2u);
  EXPECT_EQ(repl.popularity(FileId(2)), 1u);
  EXPECT_EQ(repl.popularity(FileId(3)), 0u);
}

TEST(DataReplicator, ReplicatesOnlyAboveThreshold) {
  MiniGrid g;
  replication::DataReplicator repl(quick_params(), g.sim, *g.flows, g.fs,
                                   g.server_ptrs());
  repl.start();
  for (int i = 0; i < 3; ++i) repl.on_file_fetched(FileId(7));
  repl.on_file_fetched(FileId(8));  // below threshold
  g.sim.run_until(25);
  EXPECT_EQ(repl.stats().files_replicated, 1u);
  bool somewhere = g.servers[0]->cache().contains(FileId(7)) ||
                   g.servers[1]->cache().contains(FileId(7));
  EXPECT_TRUE(somewhere);
  EXPECT_FALSE(g.servers[0]->cache().contains(FileId(8)));
  EXPECT_FALSE(g.servers[1]->cache().contains(FileId(8)));
  repl.stop();
}

TEST(DataReplicator, ReplicatesEachFileOnce) {
  MiniGrid g;
  replication::DataReplicator repl(quick_params(), g.sim, *g.flows, g.fs,
                                   g.server_ptrs());
  repl.start();
  for (int i = 0; i < 10; ++i) repl.on_file_fetched(FileId(7));
  g.sim.run_until(55);  // several scan rounds
  EXPECT_EQ(repl.stats().files_replicated, 1u);
  EXPECT_GT(repl.stats().rounds, 2u);
  repl.stop();
}

TEST(DataReplicator, SkipsSitesThatAlreadyHoldTheFile) {
  MiniGrid g;
  g.servers[0]->cache().insert(FileId(7));
  replication::DataReplicator repl(quick_params(), g.sim, *g.flows, g.fs,
                                   g.server_ptrs());
  repl.start();
  for (int i = 0; i < 3; ++i) repl.on_file_fetched(FileId(7));
  g.sim.run_until(25);
  // Only site 1 was a legal target.
  EXPECT_TRUE(g.servers[1]->cache().contains(FileId(7)));
  repl.stop();
}

TEST(DataReplicator, LeastLoadedPlacementPrefersShortQueue) {
  MiniGrid g;
  // Clog site 0's data server with a long batch.
  std::vector<FileId> big;
  for (unsigned i = 20; i < 35; ++i) big.push_back(FileId(i));
  g.servers[0]->request_batch(TaskId(0), WorkerId(0), big, [] {});
  g.servers[0]->request_batch(
      TaskId(1), WorkerId(0),
      std::vector<FileId>{FileId(40), FileId(41)}, [] {});
  replication::DataReplicatorParams p = quick_params();
  p.placement = replication::Placement::kLeastLoaded;
  replication::DataReplicator repl(p, g.sim, *g.flows, g.fs,
                                   g.server_ptrs());
  repl.start();
  for (int i = 0; i < 3; ++i) repl.on_file_fetched(FileId(7));
  g.sim.run_until(12);  // one scan while site 0 still has a queue
  g.sim.run_until(60);
  EXPECT_TRUE(g.servers[1]->cache().contains(FileId(7)));
  repl.stop();
  g.sim.run();
}

TEST(DataReplicator, StopCancelsScansAndFlows) {
  MiniGrid g;
  replication::DataReplicator repl(quick_params(), g.sim, *g.flows, g.fs,
                                   g.server_ptrs());
  repl.start();
  for (int i = 0; i < 3; ++i) repl.on_file_fetched(FileId(7));
  repl.stop();
  g.sim.run();
  EXPECT_EQ(repl.stats().files_replicated, 0u);
  EXPECT_EQ(repl.stats().rounds, 0u);
  // Idempotent.
  repl.stop();
}

TEST(DataReplicator, PlacementNames) {
  EXPECT_STREQ(replication::to_string(replication::Placement::kRandom),
               "random");
  EXPECT_STREQ(replication::to_string(replication::Placement::kLeastLoaded),
               "least-loaded");
}

// --- Integration through GridSimulation ----------------------------------

TEST(ReplicationIntegration, RunsToCompletionAndReportsStats) {
  workload::GeneratorParams gp;
  gp.num_tasks = 60;
  gp.num_files = 300;
  gp.files_per_task = 10;
  gp.file_size = megabytes(5);
  auto job = workload::generate_zipf(gp, 1.2);  // hot files: replication bites
  grid::GridConfig c;
  // More sites than the popularity threshold, so a hot file is NOT yet
  // resident everywhere when it becomes replication-eligible.
  c.tiers.num_sites = 5;
  c.tiers.workers_per_site = 1;
  c.capacity_files = 300;
  replication::DataReplicatorParams rp;
  rp.popularity_threshold = 2;
  rp.check_interval_s = 300;
  c.replication = rp;
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  auto r = grid::run_once(c, job, spec, 1);
  EXPECT_EQ(r.tasks_completed, 60u);
  EXPECT_GT(r.files_replicated, 0u);
  EXPECT_GT(r.bytes_replicated, 0.0);
}

TEST(ReplicationIntegration, RaceWithDemandFetchesSurvives) {
  // Regression for the demand-fetch/replica race: aggressive replication
  // (low threshold, short interval) + storage affinity's bursty queues
  // maximize the chance a replica lands while the same file is being
  // demand-fetched at the same site.
  workload::CoaddParams cp;
  cp.num_tasks = 200;
  auto job = workload::generate_coadd(cp);
  grid::GridConfig c;
  c.tiers.num_sites = 5;
  c.tiers.workers_per_site = 2;
  c.capacity_files = 500;
  replication::DataReplicatorParams rp;
  rp.popularity_threshold = 2;
  rp.check_interval_s = 200;  // very chatty
  rp.max_replicas_per_round = 100;
  c.replication = rp;
  sched::SchedulerSpec sa;
  sa.algorithm = sched::Algorithm::kStorageAffinity;
  auto r = grid::run_once(c, job, sa, 1);
  EXPECT_EQ(r.tasks_completed, 200u);
  EXPECT_GT(r.files_replicated, 0u);
}

TEST(ReplicationIntegration, DisabledByDefault) {
  workload::CoaddParams cp;
  cp.num_tasks = 40;
  auto job = workload::generate_coadd(cp);
  grid::GridConfig c;
  c.tiers.num_sites = 2;
  c.tiers.workers_per_site = 1;
  c.capacity_files = 300;
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  auto r = grid::run_once(c, job, spec, 1);
  EXPECT_EQ(r.files_replicated, 0u);
}

TEST(ReplicationIntegration, DeterministicWithReplication) {
  workload::CoaddParams cp;
  cp.num_tasks = 60;
  auto job = workload::generate_coadd(cp);
  grid::GridConfig c;
  c.tiers.num_sites = 2;
  c.tiers.workers_per_site = 1;
  c.capacity_files = 300;
  replication::DataReplicatorParams rp;
  rp.popularity_threshold = 4;
  rp.check_interval_s = 1200;
  c.replication = rp;
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  auto r1 = grid::run_once(c, job, spec, 2);
  auto r2 = grid::run_once(c, job, spec, 2);
  EXPECT_DOUBLE_EQ(r1.makespan_s, r2.makespan_s);
  EXPECT_EQ(r1.files_replicated, r2.files_replicated);
}

// --- Worker-centric task replication --------------------------------------

TEST(WcTaskReplication, NameCarriesSuffix) {
  sched::SchedulerSpec s;
  s.algorithm = sched::Algorithm::kRest;
  s.choose_n = 2;
  s.task_replication = true;
  EXPECT_EQ(s.name(), "rest.2+repl");
}

TEST(WcTaskReplication, ReplicatesTailAndCancels) {
  workload::CoaddParams cp;
  cp.num_tasks = 80;
  auto job = workload::generate_coadd(cp);
  grid::GridConfig c;
  c.tiers.num_sites = 3;
  c.tiers.workers_per_site = 2;
  c.capacity_files = 300;
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  spec.task_replication = true;
  auto r = grid::run_once(c, job, spec, 1);
  EXPECT_EQ(r.tasks_completed, 80u);
  EXPECT_GT(r.replicas_started, 0u);
  EXPECT_EQ(r.assignments, 80u + r.replicas_started);
  EXPECT_GE(r.replicas_started, r.replicas_cancelled);
}

TEST(WcTaskReplication, OffByDefaultNoReplicas) {
  workload::CoaddParams cp;
  cp.num_tasks = 50;
  auto job = workload::generate_coadd(cp);
  grid::GridConfig c;
  c.tiers.num_sites = 2;
  c.tiers.workers_per_site = 2;
  c.capacity_files = 300;
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  auto r = grid::run_once(c, job, spec, 1);
  EXPECT_EQ(r.replicas_started, 0u);
}

TEST(WcTaskReplication, NeverHurtsCompletionInvariant) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    workload::CoaddParams cp;
    cp.num_tasks = 60;
    cp.seed = seed;
    auto job = workload::generate_coadd(cp);
    grid::GridConfig c;
    c.tiers.num_sites = 2;
    c.tiers.workers_per_site = 3;
    c.capacity_files = 400;
    sched::SchedulerSpec spec;
    spec.algorithm = sched::Algorithm::kCombined;
    spec.choose_n = 2;
    spec.task_replication = true;
    auto r = grid::run_once(c, job, spec, seed);
    EXPECT_EQ(r.tasks_completed, 60u);
  }
}

}  // namespace
}  // namespace wcs
