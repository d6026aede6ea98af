// Tests for the proactive data-replication subsystem and the
// worker-centric task-replication extension.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "grid/experiment.h"
#include "grid/grid_simulation.h"
#include "obs/json.h"
#include "replication/data_replicator.h"
#include "sched/factory.h"
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
  storage::BlockMap blocks;
  std::unique_ptr<net::FlowManager> flows;
  std::vector<std::unique_ptr<storage::DataServer>> servers;

  explicit MiniGrid(std::size_t sites = 2, std::size_t capacity = 20,
                    storage::BlockMap map = storage::uniform_block_map(
                        50, megabytes(1)))
      : blocks(std::move(map)) {
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
                                   g.server_ptrs(), g.blocks.num_files());
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
                                   g.server_ptrs(), g.blocks.num_files());
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
                                   g.server_ptrs(), g.blocks.num_files());
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
                                   g.server_ptrs(), g.blocks.num_files());
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
                                   g.server_ptrs(), g.blocks.num_files());
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
                                   g.server_ptrs(), g.blocks.num_files());
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

TEST(DataReplicator, HierarchicalPlacementFollowsGroupDemand) {
  MiniGrid g(4);
  // Sites 0-1 form MAN group 0, sites 2-3 group 1.
  std::vector<replication::SiteNetInfo> info(4);
  info[2].man_group = info[3].man_group = 1;
  replication::DataReplicatorParams p = quick_params();
  p.placement = replication::Placement::kHierarchicalParent;
  replication::DataReplicator repl(p, g.sim, *g.flows, g.fs, g.server_ptrs(),
                                   g.blocks.num_files(), info);
  repl.start();
  repl.on_file_fetched(FileId(7), SiteId(0));
  repl.on_file_fetched(FileId(7), SiteId(3));
  repl.on_file_fetched(FileId(7), SiteId(3));
  // File 8's demand is all in group 0 (its counters sit next to 7's).
  for (int i = 0; i < 3; ++i) repl.on_file_fetched(FileId(8), SiteId(1));
  g.sim.run_until(60);
  // Group 1 asked for file 7 most; its lowest idle site gets the replica.
  EXPECT_TRUE(g.servers[2]->cache().contains(FileId(7)));
  EXPECT_TRUE(g.servers[0]->cache().contains(FileId(8)));
  EXPECT_EQ(repl.stats().files_replicated, 2u);
  repl.stop();
}

// --- Hot-set picks against the walk-and-sort oracle -----------------------
//
// The replicator maintains its eligible files incrementally. The oracle
// is the scan it replaced: walk every count, keep the files at or over
// the threshold that are not yet replicated, sort them by (count desc,
// id asc) and take the first `cap`. Picks are observed through the
// replica flows each scan starts: every file of this grid has a distinct
// size, so a flow's size names its file, and flow ids give the start
// order.

constexpr std::uint32_t kHotFiles = 48;
constexpr SimTime kHotInterval = 10;

storage::BlockMap distinct_size_block_map() {
  workload::FileCatalog catalog;
  for (std::uint32_t i = 0; i < kHotFiles; ++i)
    (void)catalog.add_file(megabytes(i + 1.0));  // file i: i + 1 MB
  return storage::BlockMap(catalog, storage::BlockStoreParams{});
}

replication::DataReplicatorParams hot_params(std::size_t threshold,
                                             std::size_t cap) {
  replication::DataReplicatorParams p;
  p.popularity_threshold = threshold;
  p.max_replicas_per_round = cap;
  p.check_interval_s = kHotInterval;
  p.placement = replication::Placement::kRandom;
  return p;
}

// A live replicator over two sites. Only replicas ever enter a cache and
// each file is replicated at most once, so one site always lacks a
// picked file: every pick starts a flow.
class HotSetRun {
 public:
  HotSetRun(std::size_t threshold, std::size_t cap)
      : g_(2, 20, distinct_size_block_map()),
        repl_(hot_params(threshold, cap), g_.sim, *g_.flows, g_.fs,
              g_.server_ptrs(), kHotFiles) {
    repl_.start();
  }
  ~HotSetRun() {
    repl_.stop();
    g_.sim.run();
  }
  HotSetRun(const HotSetRun&) = delete;
  HotSetRun& operator=(const HotSetRun&) = delete;

  void fetch(std::uint32_t file) { repl_.on_file_fetched(FileId(file)); }

  // Runs the next scan; the files it replicated, in pick order.
  std::vector<std::uint32_t> scan() {
    now_ += kHotInterval;
    g_.sim.run_until(now_);
    // The scan's flows are still in their latency phase, so none has
    // completed yet; the snapshot lists flows by id.
    std::vector<std::uint32_t> picks;
    for (const audit::FlowProgress& f : g_.flows->audit_snapshot().flows) {
      if (f.id < next_flow_) continue;
      next_flow_ = f.id + 1;
      picks.push_back(static_cast<std::uint32_t>(
                          std::llround(f.total_bytes / megabytes(1))) -
                      1);
    }
    EXPECT_EQ(repl_.stats().rounds, ++rounds_);
    return picks;
  }

 private:
  MiniGrid g_;
  replication::DataReplicator repl_;
  SimTime now_ = 0;
  std::uint64_t next_flow_ = 0;
  std::uint64_t rounds_ = 0;
};

class WalkAndSortOracle {
 public:
  WalkAndSortOracle(std::size_t threshold, std::size_t cap)
      : threshold_(threshold), cap_(cap) {}

  void fetch(std::uint32_t file) { ++count_[file]; }

  std::vector<std::uint32_t> scan() {
    std::vector<std::pair<std::size_t, std::uint32_t>> hot;
    for (std::uint32_t f = 0; f < kHotFiles; ++f)
      if (count_[f] >= threshold_ && !replicated_[f])
        hot.emplace_back(count_[f], f);
    std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    if (hot.size() > cap_) hot.resize(cap_);
    std::vector<std::uint32_t> picks;
    for (const auto& [count, f] : hot) {
      replicated_[f] = true;
      picks.push_back(f);
    }
    return picks;
  }

 private:
  std::size_t threshold_;
  std::size_t cap_;
  std::vector<std::size_t> count_ = std::vector<std::size_t>(kHotFiles, 0);
  std::vector<bool> replicated_ = std::vector<bool>(kHotFiles, false);
};

using Picks = std::vector<std::uint32_t>;

TEST(HotSet, SeededFetchStreamsMatchWalkAndSortOracle) {
  std::size_t total_picks = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (std::size_t threshold : {1u, 3u, 8u}) {
      for (std::size_t cap : {1u, 25u}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " threshold " +
                     std::to_string(threshold) + " cap " +
                     std::to_string(cap));
        Rng rng(seed);
        HotSetRun run(threshold, cap);
        WalkAndSortOracle oracle(threshold, cap);
        for (int round = 0; round < 16; ++round) {
          const std::size_t fetches = rng.index(40);  // 0-39; some empty
          for (std::size_t i = 0; i < fetches; ++i) {
            // Skewed toward low ids (min of two draws): hot files, and
            // many count ties among them.
            const auto f = static_cast<std::uint32_t>(
                std::min(rng.index(kHotFiles), rng.index(kHotFiles)));
            run.fetch(f);
            oracle.fetch(f);
          }
          const Picks expected = oracle.scan();
          ASSERT_EQ(run.scan(), expected) << "round " << round;
          total_picks += expected.size();
        }
      }
    }
  }
  EXPECT_GT(total_picks, 1000u);
}

TEST(HotSet, CountTiesBreakTowardLowestId) {
  HotSetRun run(/*threshold=*/3, /*cap=*/1);
  for (int i = 0; i < 3; ++i)
    for (std::uint32_t f : {9u, 4u, 6u}) run.fetch(f);
  for (int i = 0; i < 4; ++i) run.fetch(30);
  EXPECT_EQ(run.scan(), Picks{30});
  EXPECT_EQ(run.scan(), Picks{4});
  EXPECT_EQ(run.scan(), Picks{6});
  EXPECT_EQ(run.scan(), Picks{9});
  EXPECT_EQ(run.scan(), Picks{});
}

TEST(HotSet, CapThrottlesBacklogOverRounds) {
  HotSetRun run(/*threshold=*/2, /*cap=*/3);
  for (std::uint32_t f = 0; f < 7; ++f) {
    run.fetch(f);
    run.fetch(f);
  }
  run.fetch(6);
  EXPECT_EQ(run.scan(), (Picks{6, 0, 1}));
  // A backlogged file that heats up moves ahead of the rest.
  run.fetch(5);
  run.fetch(5);
  EXPECT_EQ(run.scan(), (Picks{5, 2, 3}));
  EXPECT_EQ(run.scan(), Picks{4});
  EXPECT_EQ(run.scan(), Picks{});
}

TEST(HotSet, FileCrossingThresholdBetweenScansIsPickedNextScan) {
  HotSetRun run(/*threshold=*/3, /*cap=*/25);
  run.fetch(5);
  run.fetch(5);
  EXPECT_EQ(run.scan(), Picks{});
  run.fetch(5);
  EXPECT_EQ(run.scan(), Picks{5});
  // Replicated files never re-enter the hot set.
  for (int i = 0; i < 5; ++i) run.fetch(5);
  EXPECT_EQ(run.scan(), Picks{});
}

TEST(HotSet, ThresholdOneMakesEveryFetchedFileEligible) {
  HotSetRun run(/*threshold=*/1, /*cap=*/25);
  for (std::uint32_t f : {7u, 3u, 11u, 3u}) run.fetch(f);
  EXPECT_EQ(run.scan(), (Picks{3, 7, 11}));
  run.fetch(0);
  EXPECT_EQ(run.scan(), Picks{0});
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

TEST(ReplicationIntegration, ScansAreProfiledAsTheReplicationPhase) {
  workload::CoaddParams cp;
  cp.num_tasks = 60;
  auto job = workload::generate_coadd(cp);
  grid::GridConfig c;
  c.tiers.num_sites = 2;
  c.tiers.workers_per_site = 1;
  c.capacity_files = 300;
  replication::DataReplicatorParams rp;
  rp.popularity_threshold = 2;
  rp.check_interval_s = 300;
  c.replication = rp;
  c.obs.profile = true;
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  grid::GridSimulation sim(c, job, sched::make_scheduler(spec));
  (void)sim.run();
  const obs::PhaseProfiler& profiler = *sim.observability()->profiler();
  const obs::PhaseProfiler::Slot& slot =
      profiler.slot(obs::Phase::kReplication);
  EXPECT_GT(slot.calls, 0u);
  EXPECT_EQ(slot.calls, sim.replicator()->stats().rounds);
  EXPECT_GT(slot.wall_ns, 0u);
  // The run report's phase list names it.
  std::ostringstream out;
  obs::JsonWriter w(out);
  profiler.write_json(w);
  EXPECT_NE(out.str().find("\"replication\""), std::string::npos);
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
