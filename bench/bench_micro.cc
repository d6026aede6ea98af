// google-benchmark microbenchmarks for the hot paths: event kernel
// throughput, max-min reallocation, scheduler weight scans, cache churn.
// These guard the "6,000-task experiment in seconds" property the figure
// benches rely on.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "fake_engine.h"
#include "grid/experiment.h"
#include "grid/grid_simulation.h"
#include "net/flow_manager.h"
#include "net/tiers.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "sched/factory.h"
#include "sim/simulator.h"
#include "storage/block_store.h"
#include "storage/file_cache.h"
#include "workload/coadd.h"

namespace {

using namespace wcs;

void BM_EventKernel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 10000; ++i)
      sim.schedule_in((i * 37) % 1000, [] {});
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventKernel);

void BM_FlowReallocation(benchmark::State& state) {
  const int kFlows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    net::TiersParams tp;
    tp.num_sites = 10;
    net::GridTopology g = net::build_tiers_topology(tp);
    net::FlowManager flows(sim, g.topology);
    for (int i = 0; i < kFlows; ++i)
      flows.start_flow(g.file_server_node,
                       g.data_server_nodes[i % g.data_server_nodes.size()],
                       megabytes(25), [](FlowId) {});
    sim.run();
    benchmark::DoNotOptimize(flows.completed_flows());
  }
  state.SetItemsProcessed(state.iterations() * kFlows);
}
BENCHMARK(BM_FlowReallocation)->Arg(16)->Arg(64)->Arg(256);

// Route set-up as the control plane does it: path_latency(worker,
// scheduler) for every worker of the 100 x 100 scale platform, on a freshly
// built topology (empty route cache) each iteration. This explains the
// setup_s of perfbench's `scale` workload; it does not replace it.
void BM_RouteQuery(benchmark::State& state) {
  net::TiersParams tp;
  tp.num_sites = 100;
  tp.workers_per_site = 100;
  for (auto _ : state) {
    state.PauseTiming();
    const net::GridTopology g = net::build_tiers_topology(tp);
    state.ResumeTiming();
    SimTime total = 0;
    for (const std::vector<NodeId>& site : g.worker_nodes)
      for (NodeId w : site)
        total += g.topology.path_latency(w, g.scheduler_node);
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * tp.num_sites *
                          tp.workers_per_site);
}
BENCHMARK(BM_RouteQuery)->Unit(benchmark::kMillisecond);

void BM_Reallocate(benchmark::State& state) {
  // Steady-state reallocation cost at N concurrent flows. The platform is
  // the grid's LAN sharing pattern: disjoint site switches, four worker
  // flows per site, so the sharing graph is many small components. Each
  // iteration churns one site-0 flow (cancel, start, activate) — two
  // reallocations, each flooding and refilling only the ~4-flow dirty
  // component. Flow sizes are effectively infinite, so no completion ever
  // interferes.
  const int kFlows = static_cast<int>(state.range(0));
  const int kPerSite = 4;
  const int kSites = (kFlows + kPerSite - 1) / kPerSite;
  sim::Simulator sim;
  net::Topology topo;
  std::vector<NodeId> switches;
  std::vector<NodeId> workers;
  for (int s = 0; s < kSites; ++s) {
    switches.push_back(topo.add_node("sw"));
    for (int w = 0; w < kPerSite; ++w) {
      workers.push_back(topo.add_node("w"));
      topo.add_link(switches.back(), workers.back(), 1e8, 0.0);
    }
  }
  net::FlowManager flows(sim, topo);
  std::vector<FlowId> ids;
  ids.reserve(static_cast<std::size_t>(kFlows));
  for (int i = 0; i < kFlows; ++i)
    ids.push_back(flows.start_flow(
        switches[static_cast<std::size_t>(i / kPerSite)],
        workers[static_cast<std::size_t>(i)], megabytes(1e9), [](FlowId) {}));
  for (int i = 0; i < kFlows; ++i) sim.step();  // t=0 activations

  std::size_t victim = 0;
  for (auto _ : state) {
    flows.cancel(ids[victim]);
    ids[victim] = flows.start_flow(switches[0], workers[victim],
                                   megabytes(1e9), [](FlowId) {});
    sim.step();  // the replacement's activation -> second reallocation
    victim = (victim + 1) % kPerSite;
  }
  benchmark::DoNotOptimize(flows.cancelled_flows());
  state.SetItemsProcessed(state.iterations() * 2);  // reallocations
}

BENCHMARK(BM_Reallocate)->Arg(10)->Arg(100)->Arg(1000);

void BM_ReallocateSharedUplink(benchmark::State& state) {
  // Steady-state reallocation cost behind one shared uplink: the grid's
  // file-server pattern. N flows leave one server through the uplink,
  // each capped by its own client access link (0.1-0.2 MB/s against a
  // 1 GB/s uplink). The uplink never saturates, so reallocation cuts the
  // sharing graph there and re-fills only the churned flow; what still
  // grows with N is the uplink's residual, recounted over its N flows.
  // Each iteration churns one flow (cancel, start, activate): two
  // reallocations, the activation with one re-flood (its access link
  // was empty, hence slack). Flow sizes are effectively infinite.
  const int kFlows = static_cast<int>(state.range(0));
  sim::Simulator sim;
  net::Topology topo;
  const NodeId server = topo.add_node("server");
  const NodeId router = topo.add_node("router");
  topo.add_link(server, router, 1e9, 0.0);
  std::vector<NodeId> clients;
  for (int i = 0; i < kFlows; ++i) {
    clients.push_back(topo.add_node("client"));
    // Distinct capacities: no two access links tie.
    topo.add_link(router, clients.back(), 1e5 + 97.0 * i, 0.0);
  }
  net::FlowManager flows(sim, topo);
  std::vector<FlowId> ids;
  ids.reserve(static_cast<std::size_t>(kFlows));
  for (int i = 0; i < kFlows; ++i)
    ids.push_back(flows.start_flow(server,
                                   clients[static_cast<std::size_t>(i)],
                                   megabytes(1e9), [](FlowId) {}));
  for (int i = 0; i < kFlows; ++i) sim.step();  // t=0 activations

  std::size_t victim = 0;
  for (auto _ : state) {
    flows.cancel(ids[victim]);
    ids[victim] = flows.start_flow(server, clients[victim], megabytes(1e9),
                                   [](FlowId) {});
    sim.step();  // the replacement's activation -> second reallocation
    victim = (victim + 1) % ids.size();
  }
  benchmark::DoNotOptimize(flows.cancelled_flows());
  state.SetItemsProcessed(state.iterations() * 2);  // reallocations
}
BENCHMARK(BM_ReallocateSharedUplink)->Arg(100)->Arg(1000);

void BM_CacheChurn(benchmark::State& state) {
  const storage::BlockMap map(workload::FileCatalog(20000, megabytes(25.0)),
                              storage::BlockStoreParams{});
  storage::FileCache cache(map, 6000, storage::EvictionPolicy::kLru);
  unsigned i = 0;
  for (auto _ : state) {
    FileId f(i % 20000);
    if (!cache.contains(f)) cache.insert(f);
    cache.record_access(f);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheChurn);

// Cost of the pin -> insert -> unpin cycle (one per scheduled task) over
// a catalog of N coadd-window files, at content overlap 0 (disjoint
// extents: the paper's file-count law) and 0.5 (adjacent windows share
// half their blocks, so every transition walks the extent neighbours).
// Args: overlap in percent, catalog files. The `bytes_saved` counter
// reports the dedup savings banked over the run (0 at overlap 0) — the
// wall-time delta between the two overlaps is the price of those bytes.
void BM_BlockPin(benchmark::State& state) {
  const std::size_t kFiles = static_cast<std::size_t>(state.range(1));
  workload::FileCatalog catalog(kFiles, megabytes(25.0));
  storage::BlockStoreParams bp;
  bp.content_overlap = static_cast<double>(state.range(0)) / 100.0;
  storage::BlockMap map(catalog, bp);
  storage::FileCache cache(map, kFiles / 4, storage::EvictionPolicy::kLru);

  // Cyclic sweep over a catalog 4x the cache: every touch past the first
  // lap misses (a scan defeats LRU), so each op pays insert + eviction +
  // pin + unpin; under overlap the freshly-evicted neighbour's shared
  // blocks are re-covered by the adjacent resident on the next insert.
  double saved = 0;
  unsigned i = 0;
  for (auto _ : state) {
    FileId f(static_cast<FileId::underlying_type>(i % kFiles));
    if (!cache.contains(f)) {
      saved += static_cast<double>(cache.file_bytes(f)) -
               static_cast<double>(cache.missing_bytes(f));
      cache.insert(f);
    }
    cache.pin(f);
    cache.record_access(f);
    cache.unpin(f);
    ++i;
  }
  benchmark::DoNotOptimize(cache.size());
  state.SetItemsProcessed(state.iterations());
  state.counters["bytes_saved"] =
      benchmark::Counter(saved, benchmark::Counter::kDefaults);
}
BENCHMARK(BM_BlockPin)->ArgsProduct({{0, 50}, {10000, 100000}});

void BM_SchedulerWeightScan(benchmark::State& state) {
  // Full worker-centric request cycle cost on a paper-scale pending set.
  workload::CoaddParams cp;
  cp.num_tasks = static_cast<std::size_t>(state.range(0));
  auto job = workload::generate_coadd(cp);
  grid::GridConfig config;
  config.tiers.num_sites = 10;
  config.capacity_files = 6000;
  for (auto _ : state) {
    state.PauseTiming();
    sched::SchedulerSpec spec;
    spec.algorithm = sched::Algorithm::kCombined;
    grid::GridSimulation sim(config, job, sched::make_scheduler(spec));
    state.ResumeTiming();
    benchmark::DoNotOptimize(sim.run().makespan_s);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerWeightScan)->Unit(benchmark::kMillisecond)->Arg(1000);

void BM_EventKernelWithCancellation(benchmark::State& state) {
  // Schedule/cancel churn: every other event is cancelled before firing,
  // the pattern worker timeouts and replica cancellations produce. Guards
  // the lazy-deletion scheme (no hashing on schedule/cancel/pop).
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<EventId> ids;
    ids.reserve(10000);
    for (int i = 0; i < 10000; ++i)
      ids.push_back(sim.schedule_in((i * 37) % 1000, [] {}));
    for (int i = 0; i < 10000; i += 2) sim.cancel(ids[i]);
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventKernelWithCancellation);

void BM_ChooseTaskCombined(benchmark::State& state) {
  // Per-decision cost of the combined metric at a paper-scale pending
  // bag: weight() runs the totals query (incremental aggregates) plus one
  // weight evaluation — the per-task unit of the choose_task scan.
  workload::CoaddParams cp;
  cp.num_tasks = static_cast<std::size_t>(state.range(0));
  auto job = workload::generate_coadd(cp);
  grid::GridConfig config;
  config.tiers.num_sites = 10;
  config.capacity_files = 6000;
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kWorkqueue;  // engine substrate only
  grid::GridSimulation engine(config, job, sched::make_scheduler(spec));
  sched::WorkerCentricParams params;
  params.metric = sched::Metric::kCombined;
  sched::WorkerCentricScheduler scheduler(params);
  scheduler.attach(engine);
  scheduler.on_job_submitted();
  unsigned i = 0;
  for (auto _ : state) {
    TaskId t(i % static_cast<unsigned>(state.range(0)));
    benchmark::DoNotOptimize(scheduler.weight(SiteId(i % 10), t));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChooseTaskCombined)->Arg(1000)->Arg(6000);

void BM_ChooseTask(benchmark::State& state) {
  // One full worker request as a run pays for it: ChooseTask(n) over the
  // pending bag, the assignment, the cache events of the task's fetch
  // (the listener upkeep every decision depends on) and the completion.
  // Combined metric with n = 2, the most expensive configuration. The
  // engine is the in-memory one the scheduler unit tests use: real site
  // caches, assignments recorded instead of simulated. The bag drains by
  // one task per iteration; when it empties, the scheduler is rebuilt
  // over the warm caches outside the timed region.
  constexpr std::size_t kSites = 4;
  workload::CoaddParams cp;
  cp.num_tasks = static_cast<std::size_t>(state.range(0));
  auto job = workload::generate_coadd(cp);
  sched::testing::FakeEngine engine(job, kSites, /*workers_per_site=*/1,
                                    /*capacity=*/6000);
  sched::WorkerCentricParams params;
  params.metric = sched::Metric::kCombined;
  params.choose_n = 2;
  auto scheduler = std::make_unique<sched::WorkerCentricScheduler>(params);
  scheduler->attach(engine);
  scheduler->on_job_submitted();
  unsigned site = 0;
  for (auto _ : state) {
    if (scheduler->pending_count() == 0) {
      state.PauseTiming();
      scheduler = std::make_unique<sched::WorkerCentricScheduler>(params);
      scheduler->attach(engine);
      scheduler->on_job_submitted();
      state.ResumeTiming();
    }
    const WorkerId worker(site);
    engine.assignments.clear();
    scheduler->on_worker_idle(worker);
    const TaskId task = engine.assignments.front().first;
    benchmark::DoNotOptimize(task);
    for (FileId f : job.task(task).files) engine.add_file(SiteId(site), f);
    scheduler->on_task_completed(task, worker);
    site = (site + 1) % kSites;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChooseTask)
    ->Unit(benchmark::kMicrosecond)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000);

void BM_RunMatrix(benchmark::State& state) {
  // Wall-clock of a 6-algorithm x 4-seed figure matrix, serial
  // (jobs = 1) vs fanned out over the thread pool (jobs = 4). The
  // acceptance bar for the parallel runner: identical output, and on
  // multi-core hardware ~jobs x less wall-clock.
  const auto jobs = static_cast<std::size_t>(state.range(0));
  workload::CoaddParams cp;
  cp.num_tasks = 300;
  auto job = workload::generate_coadd(cp);
  grid::GridConfig config;
  config.tiers.num_sites = 10;
  config.capacity_files = 6000;
  auto specs = sched::SchedulerSpec::paper_algorithms();
  const std::vector<std::uint64_t> seeds{1, 2, 3, 4};
  for (auto _ : state) {
    auto rows = grid::run_matrix(config, job, specs, seeds, {}, jobs);
    benchmark::DoNotOptimize(rows.front().makespan_minutes);
  }
  state.SetItemsProcessed(state.iterations() * specs.size() * seeds.size());
}
BENCHMARK(BM_RunMatrix)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1)
    ->Arg(4)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_ObsOverhead(benchmark::State& state) {
  // The observability contract (DESIGN.md §Observability): with obs
  // disabled the instrumented build must cost < 2% over the seed — every
  // hook is one null-pointer branch. Arg encodes the obs mode:
  //   0 = disabled, 1 = metrics + profiler, 2 = metrics + profiler + trace.
  workload::CoaddParams cp;
  cp.num_tasks = 300;
  auto job = workload::generate_coadd(cp);
  grid::GridConfig config;
  config.tiers.num_sites = 10;
  config.capacity_files = 6000;
  config.obs = {};
  if (state.range(0) >= 1) {
    config.obs.metrics = true;
    config.obs.profile = true;
  }
  if (state.range(0) >= 2) config.obs.trace = true;
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  spec.choose_n = 2;
  for (auto _ : state) {
    grid::GridSimulation sim(config, job, sched::make_scheduler(spec));
    benchmark::DoNotOptimize(sim.run().makespan_s);
  }
  state.SetItemsProcessed(state.iterations() * 300);
}
BENCHMARK(BM_ObsOverhead)
    ->Unit(benchmark::kMillisecond)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2);

void BM_MetricsHotPath(benchmark::State& state) {
  // Counter add + histogram add, the per-event obs cost when enabled.
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("bench.counter");
  obs::FixedHistogram& h = registry.histogram("bench.hist", 0, 7200, 72);
  std::uint64_t i = 0;
  for (auto _ : state) {
    c.add();
    h.add(static_cast<double>(i % 7200));
    ++i;
  }
  benchmark::DoNotOptimize(c.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsHotPath);

void BM_CoaddGeneration(benchmark::State& state) {
  workload::CoaddParams cp;
  cp.num_tasks = 6000;
  for (auto _ : state) {
    auto job = workload::generate_coadd(cp);
    benchmark::DoNotOptimize(job.num_tasks());
  }
  state.SetItemsProcessed(state.iterations() * 6000);
}
BENCHMARK(BM_CoaddGeneration)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
