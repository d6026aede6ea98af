// Unit tests for the worker-centric scheduler: the three
// CalculateWeight() metrics, ChooseTask(n), the incremental index, the
// degenerate cases the paper leaves implicit, and a brute-force choice
// oracle replayed over random interleavings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "fake_engine.h"
#include "sched/worker_centric.h"

namespace wcs::sched {
namespace {

using testing::FakeEngine;
using testing::make_job;

WorkerCentricScheduler make_sched(Metric m, int n = 1,
                                  CombinedFormula f = CombinedFormula::kProse,
                                  std::uint64_t seed = 7) {
  WorkerCentricParams p;
  p.metric = m;
  p.choose_n = n;
  p.combined_formula = f;
  p.seed = seed;
  return WorkerCentricScheduler(p);
}

// Job: t0 needs {0,1}, t1 needs {1,2,3}, t2 needs {4}.
workload::Job tiny_job() { return make_job({{0, 1}, {1, 2, 3}, {4}}, 5); }

TEST(Naming, MatchesPaperLabels) {
  EXPECT_EQ(make_sched(Metric::kOverlap).name(), "overlap");
  EXPECT_EQ(make_sched(Metric::kRest).name(), "rest");
  EXPECT_EQ(make_sched(Metric::kCombined).name(), "combined");
  EXPECT_EQ(make_sched(Metric::kRest, 2).name(), "rest.2");
  EXPECT_EQ(make_sched(Metric::kCombined, 2).name(), "combined.2");
  EXPECT_EQ(make_sched(Metric::kCombined, 2, CombinedFormula::kVerbatim).name(),
            "combined~verbatim.2");
}

TEST(Naming, RejectsZeroN) {
  WorkerCentricParams p;
  p.choose_n = 0;
  EXPECT_THROW(WorkerCentricScheduler{p}, std::logic_error);
}

// --- Overlap metric -------------------------------------------------------

TEST(OverlapMetric, CountsResidentFiles) {
  auto job = tiny_job();
  FakeEngine eng(job, 2, 1);
  auto sched = make_sched(Metric::kOverlap);
  sched.attach(eng);
  sched.on_job_submitted();

  eng.add_file(SiteId(0), FileId(1));
  eng.add_file(SiteId(0), FileId(2));

  EXPECT_DOUBLE_EQ(sched.weight(SiteId(0), TaskId(0)), 1.0);  // {1}
  EXPECT_DOUBLE_EQ(sched.weight(SiteId(0), TaskId(1)), 2.0);  // {1,2}
  EXPECT_DOUBLE_EQ(sched.weight(SiteId(0), TaskId(2)), 0.0);
  // Other site unaffected.
  EXPECT_DOUBLE_EQ(sched.weight(SiteId(1), TaskId(1)), 0.0);
}

TEST(OverlapMetric, PicksMaxOverlapTask) {
  auto job = tiny_job();
  FakeEngine eng(job, 1, 1);
  auto sched = make_sched(Metric::kOverlap);
  sched.attach(eng);
  sched.on_job_submitted();
  eng.add_file(SiteId(0), FileId(2));
  eng.add_file(SiteId(0), FileId(3));
  sched.on_worker_idle(WorkerId(0));
  ASSERT_EQ(eng.assignments.size(), 1u);
  EXPECT_EQ(eng.assignments[0].first, TaskId(1));
}

TEST(OverlapMetric, ColdCacheTieBreaksToLowestTaskId) {
  auto job = tiny_job();
  FakeEngine eng(job, 1, 1);
  auto sched = make_sched(Metric::kOverlap);
  sched.attach(eng);
  sched.on_job_submitted();
  sched.on_worker_idle(WorkerId(0));
  ASSERT_EQ(eng.assignments.size(), 1u);
  EXPECT_EQ(eng.assignments[0].first, TaskId(0));
}

TEST(OverlapMetric, EvictionLowersWeight) {
  auto job = tiny_job();
  FakeEngine eng(job, 1, 1, /*capacity=*/2);
  auto sched = make_sched(Metric::kOverlap);
  sched.attach(eng);
  sched.on_job_submitted();
  eng.add_file(SiteId(0), FileId(1));
  eng.add_file(SiteId(0), FileId(2));
  EXPECT_DOUBLE_EQ(sched.weight(SiteId(0), TaskId(1)), 2.0);
  eng.add_file(SiteId(0), FileId(4));  // evicts LRU file 1
  EXPECT_DOUBLE_EQ(sched.weight(SiteId(0), TaskId(1)), 1.0);
  EXPECT_DOUBLE_EQ(sched.weight(SiteId(0), TaskId(2)), 1.0);
}

// --- Rest metric ----------------------------------------------------------

TEST(RestMetric, InverseOfMissingFiles) {
  auto job = tiny_job();
  FakeEngine eng(job, 1, 1);
  auto sched = make_sched(Metric::kRest);
  sched.attach(eng);
  sched.on_job_submitted();
  eng.add_file(SiteId(0), FileId(1));
  // t0: 1 missing -> 1.0; t1: 2 missing -> 0.5; t2: 1 missing -> 1.0.
  EXPECT_DOUBLE_EQ(sched.weight(SiteId(0), TaskId(0)), 1.0);
  EXPECT_DOUBLE_EQ(sched.weight(SiteId(0), TaskId(1)), 0.5);
  EXPECT_DOUBLE_EQ(sched.weight(SiteId(0), TaskId(2)), 1.0);
}

TEST(RestMetric, FullyResidentTaskBeatsEverything) {
  auto job = tiny_job();
  FakeEngine eng(job, 1, 1);
  auto sched = make_sched(Metric::kRest);
  sched.attach(eng);
  sched.on_job_submitted();
  eng.add_file(SiteId(0), FileId(0));
  eng.add_file(SiteId(0), FileId(1));
  EXPECT_DOUBLE_EQ(sched.weight(SiteId(0), TaskId(0)),
                   kFullOverlapRestWeight);
  sched.on_worker_idle(WorkerId(0));
  EXPECT_EQ(eng.assignments[0].first, TaskId(0));
}

TEST(RestMetric, PrefersFewerTransfersOverMoreOverlap) {
  // t0 needs 10 files, 8 resident (2 missing, overlap 8).
  // t1 needs 2 files, 1 resident (1 missing, overlap 1).
  // overlap would pick t0; rest must pick t1.
  auto job = make_job({{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {10, 11}}, 12);
  FakeEngine eng(job, 1, 1);
  auto rest = make_sched(Metric::kRest);
  rest.attach(eng);
  rest.on_job_submitted();
  for (unsigned f : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 10u})
    eng.add_file(SiteId(0), FileId(f));
  rest.on_worker_idle(WorkerId(0));
  EXPECT_EQ(eng.assignments[0].first, TaskId(1));

  FakeEngine eng2(job, 1, 1);
  auto overlap = make_sched(Metric::kOverlap);
  overlap.attach(eng2);
  overlap.on_job_submitted();
  for (unsigned f : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 10u})
    eng2.add_file(SiteId(0), FileId(f));
  overlap.on_worker_idle(WorkerId(0));
  EXPECT_EQ(eng2.assignments[0].first, TaskId(0));
}

// --- Combined metric ------------------------------------------------------

TEST(CombinedMetric, ProseFormulaHandComputed) {
  // Two tasks: t0 = {0,1}, t1 = {1,2,3}. Site cache: {1} accessed twice,
  // {2} accessed once.
  auto job = make_job({{0, 1}, {1, 2, 3}}, 4);
  FakeEngine eng(job, 1, 1);
  auto sched = make_sched(Metric::kCombined);
  sched.attach(eng);
  sched.on_job_submitted();
  eng.add_file(SiteId(0), FileId(1));
  eng.cache(SiteId(0)).record_access(FileId(1));  // r_1 = 2
  eng.add_file(SiteId(0), FileId(2));             // r_2 = 1

  // ref_t0 = r_1 = 2; ref_t1 = r_1 + r_2 = 3; totalRef = 5.
  // rest_t0 = 1/(2-1) = 1; rest_t1 = 1/(3-2) = 1; totalRest = 2.
  // prose: w = ref/totalRef + rest/totalRest.
  EXPECT_DOUBLE_EQ(sched.weight(SiteId(0), TaskId(0)), 2.0 / 5.0 + 0.5);
  EXPECT_DOUBLE_EQ(sched.weight(SiteId(0), TaskId(1)), 3.0 / 5.0 + 0.5);
}

TEST(CombinedMetric, VerbatimFormulaHandComputed) {
  auto job = make_job({{0, 1}, {1, 2, 3}}, 4);
  FakeEngine eng(job, 1, 1);
  auto sched = make_sched(Metric::kCombined, 1, CombinedFormula::kVerbatim);
  sched.attach(eng);
  sched.on_job_submitted();
  eng.add_file(SiteId(0), FileId(1));
  eng.cache(SiteId(0)).record_access(FileId(1));
  eng.add_file(SiteId(0), FileId(2));
  // verbatim: w = ref/totalRef + totalRest/rest.
  EXPECT_DOUBLE_EQ(sched.weight(SiteId(0), TaskId(0)), 2.0 / 5.0 + 2.0 / 1.0);
  EXPECT_DOUBLE_EQ(sched.weight(SiteId(0), TaskId(1)), 3.0 / 5.0 + 2.0 / 1.0);
}

TEST(CombinedMetric, ZeroTotalRefIsSafe) {
  auto job = tiny_job();
  FakeEngine eng(job, 1, 1);
  auto sched = make_sched(Metric::kCombined);
  sched.attach(eng);
  sched.on_job_submitted();
  // Cold cache: totalRef = 0; weights must still be finite and positive.
  double w = sched.weight(SiteId(0), TaskId(0));
  EXPECT_GT(w, 0.0);
  EXPECT_TRUE(std::isfinite(w));
  sched.on_worker_idle(WorkerId(0));
  EXPECT_EQ(eng.assignments.size(), 1u);
}

TEST(CombinedMetric, PastReferencesBreakRestTies) {
  // t0 = {0,1}, t1 = {2,3}; both have 1 resident + 1 missing, but t0's
  // resident file has more past references -> combined prefers t0.
  auto job = make_job({{0, 1}, {2, 3}}, 4);
  FakeEngine eng(job, 1, 1);
  auto sched = make_sched(Metric::kCombined);
  sched.attach(eng);
  sched.on_job_submitted();
  eng.add_file(SiteId(0), FileId(0));
  eng.cache(SiteId(0)).record_access(FileId(0));
  eng.cache(SiteId(0)).record_access(FileId(0));  // r_0 = 3
  eng.add_file(SiteId(0), FileId(2));             // r_2 = 1
  EXPECT_GT(sched.weight(SiteId(0), TaskId(0)),
            sched.weight(SiteId(0), TaskId(1)));
  sched.on_worker_idle(WorkerId(0));
  EXPECT_EQ(eng.assignments[0].first, TaskId(0));
}

// --- ChooseTask(n) --------------------------------------------------------

TEST(ChooseTask, N1IsDeterministic) {
  auto job = tiny_job();
  for (int rep = 0; rep < 5; ++rep) {
    FakeEngine eng(job, 1, 1);
    auto sched = make_sched(Metric::kRest, 1, CombinedFormula::kProse,
                            /*seed=*/static_cast<std::uint64_t>(rep));
    sched.attach(eng);
    sched.on_job_submitted();
    eng.add_file(SiteId(0), FileId(4));
    sched.on_worker_idle(WorkerId(0));
    EXPECT_EQ(eng.assignments[0].first, TaskId(2));  // fully resident
  }
}

TEST(ChooseTask, N2SamplesproportionallyToWeight) {
  // t0: weight 1.0 (1 missing), t1: weight 0.5 (2 missing), t2: weight
  // 1.0... make weights distinct: use job where t0 -> 1.0, t1 -> 0.5.
  auto job = make_job({{0}, {1, 2}, {3, 4, 5, 6}}, 7);
  std::map<unsigned, int> picks;
  for (std::uint64_t seed = 0; seed < 600; ++seed) {
    FakeEngine eng(job, 1, 1);
    auto sched = make_sched(Metric::kRest, 2, CombinedFormula::kProse, seed);
    sched.attach(eng);
    sched.on_job_submitted();
    sched.on_worker_idle(WorkerId(0));
    ++picks[eng.assignments[0].first.value()];
  }
  // Weights: t0 = 1, t1 = 0.5, t2 = 0.25. Best-2 = {t0, t1}; sampled 2:1.
  EXPECT_EQ(picks.count(2), 0u);
  double ratio = static_cast<double>(picks[0]) / picks[1];
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 2.7);
}

TEST(ChooseTask, NLargerThanPendingIsSafe) {
  auto job = make_job({{0}, {1}}, 2);
  FakeEngine eng(job, 1, 1);
  auto sched = make_sched(Metric::kRest, 8);
  sched.attach(eng);
  sched.on_job_submitted();
  sched.on_worker_idle(WorkerId(0));
  sched.on_worker_idle(WorkerId(0));
  EXPECT_EQ(eng.assignments.size(), 2u);
  EXPECT_EQ(sched.pending_count(), 0u);
}

TEST(ChooseTask, AllZeroWeightsSampleUniformlyAmongBestN) {
  auto job = tiny_job();
  std::map<unsigned, int> picks;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    FakeEngine eng(job, 1, 1);
    auto sched = make_sched(Metric::kOverlap, 2, CombinedFormula::kProse, seed);
    sched.attach(eng);
    sched.on_job_submitted();
    sched.on_worker_idle(WorkerId(0));  // cold cache: all weights 0
    ++picks[eng.assignments[0].first.value()];
  }
  // Best-2 by (0, task asc) = {t0, t1}, sampled uniformly.
  EXPECT_EQ(picks.count(2), 0u);
  EXPECT_NEAR(picks[0], 200, 60);
  EXPECT_NEAR(picks[1], 200, 60);
}

TEST(ChooseTask, RestFullyResidentBeatsOneMissingAtAHigherId) {
  // t0 misses one file, t1 none: rest ranks by `missing` before task id,
  // so the higher id wins, and both weights reach the n = 2 draw intact.
  auto job = make_job({{0}, {1, 2}}, 3);
  FakeEngine eng(job, 1, 1);
  auto sched = make_sched(Metric::kRest);
  sched.attach(eng);
  sched.on_job_submitted();
  eng.add_file(SiteId(0), FileId(1));
  eng.add_file(SiteId(0), FileId(2));
  EXPECT_DOUBLE_EQ(sched.weight(SiteId(0), TaskId(0)), 1.0);
  EXPECT_DOUBLE_EQ(sched.weight(SiteId(0), TaskId(1)), kFullOverlapRestWeight);
  sched.on_worker_idle(WorkerId(0));
  ASSERT_EQ(eng.assignments.size(), 1u);
  EXPECT_EQ(eng.assignments[0].first, TaskId(1));

  std::map<unsigned, int> picks;
  for (std::uint64_t seed = 0; seed < 600; ++seed) {
    FakeEngine eng2(job, 1, 1);
    auto sched2 = make_sched(Metric::kRest, 2, CombinedFormula::kProse, seed);
    sched2.attach(eng2);
    sched2.on_job_submitted();
    eng2.add_file(SiteId(0), FileId(1));
    eng2.add_file(SiteId(0), FileId(2));
    sched2.on_worker_idle(WorkerId(0));
    ++picks[eng2.assignments[0].first.value()];
  }
  // Weights 2 : 1.
  const double ratio = static_cast<double>(picks[1]) / picks[0];
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 2.7);
}

// Twelve single-file tasks on a cold cache tie under every metric (all
// overlaps zero, all `missing` one, totalRef zero). Assigning t0 swaps
// t11 to the front of the pending list, and a crash re-adds t0 at its
// back, so the scan meets ids out of order; each pick must still be the
// lowest pending id.
void expect_ties_break_to_lowest_id(Metric metric, CombinedFormula formula) {
  std::vector<std::vector<unsigned>> sets;
  for (unsigned f = 0; f < 12; ++f) sets.push_back({f});
  const workload::Job job = make_job(std::move(sets), 12);
  FakeEngine eng(job, 1, 2);
  auto sched = make_sched(metric, 1, formula);
  sched.attach(eng);
  sched.on_job_submitted();
  sched.on_worker_idle(WorkerId(0));
  sched.on_worker_idle(WorkerId(1));
  sched.on_worker_failed(WorkerId(0), {TaskId(0)});
  for (int i = 0; i < 10; ++i) sched.on_worker_idle(WorkerId(1));
  std::vector<unsigned> order;
  for (const auto& [t, w] : eng.assignments) order.push_back(t.value());
  EXPECT_EQ(order, (std::vector<unsigned>{0, 1, 0, 2, 3, 4, 5, 6, 7, 8, 9,
                                          10}))
      << sched.name();
}

TEST(ChooseTask, OverlapAllZeroTiesBreakToLowestPendingId) {
  expect_ties_break_to_lowest_id(Metric::kOverlap, CombinedFormula::kProse);
}
TEST(ChooseTask, RestTiesBreakToLowestPendingId) {
  expect_ties_break_to_lowest_id(Metric::kRest, CombinedFormula::kProse);
}
TEST(ChooseTask, CombinedTiesBreakToLowestPendingId) {
  expect_ties_break_to_lowest_id(Metric::kCombined, CombinedFormula::kProse);
  expect_ties_break_to_lowest_id(Metric::kCombined,
                                 CombinedFormula::kVerbatim);
}

// --- Bookkeeping ----------------------------------------------------------

TEST(Pending, AssignedTasksLeaveThePool) {
  auto job = tiny_job();
  FakeEngine eng(job, 1, 1);
  auto sched = make_sched(Metric::kRest);
  sched.attach(eng);
  sched.on_job_submitted();
  EXPECT_EQ(sched.pending_count(), 3u);
  sched.on_worker_idle(WorkerId(0));
  EXPECT_EQ(sched.pending_count(), 2u);
  EXPECT_FALSE(sched.is_pending(eng.assignments[0].first));
  sched.on_worker_idle(WorkerId(0));
  sched.on_worker_idle(WorkerId(0));
  EXPECT_EQ(sched.pending_count(), 0u);
}

TEST(Pending, EmptyBagLeavesWorkerUnassigned) {
  auto job = make_job({{0}}, 1);
  FakeEngine eng(job, 1, 1);
  auto sched = make_sched(Metric::kRest);
  sched.attach(eng);
  sched.on_job_submitted();
  sched.on_worker_idle(WorkerId(0));
  sched.on_worker_idle(WorkerId(0));  // nothing left
  EXPECT_EQ(eng.assignments.size(), 1u);
}

TEST(Pending, EachTaskAssignedExactlyOnce) {
  auto job = tiny_job();
  FakeEngine eng(job, 2, 2);
  auto sched = make_sched(Metric::kCombined);
  sched.attach(eng);
  sched.on_job_submitted();
  for (unsigned w = 0; w < 4; ++w) sched.on_worker_idle(WorkerId(w));
  ASSERT_EQ(eng.assignments.size(), 3u);
  std::set<unsigned> seen;
  for (auto& [t, w] : eng.assignments) EXPECT_TRUE(seen.insert(t.value()).second);
}

TEST(Index, WarmStartCachesAreIndexed) {
  auto job = tiny_job();
  FakeEngine eng(job, 1, 1);
  eng.add_file(SiteId(0), FileId(1));  // pre-warm BEFORE submit
  auto sched = make_sched(Metric::kOverlap);
  sched.attach(eng);
  sched.on_job_submitted();
  EXPECT_EQ(sched.overlap_cardinality(SiteId(0), TaskId(0)), 1u);
  EXPECT_EQ(sched.overlap_cardinality(SiteId(0), TaskId(1)), 1u);
}

// --- Incremental index == naive recomputation (the key property) ----------

class IndexConsistency
    : public ::testing::TestWithParam<std::tuple<Metric, std::uint64_t>> {};

TEST_P(IndexConsistency, IncrementalMatchesNaiveUnderChurn) {
  auto [metric, seed] = GetParam();
  Rng rng(seed);
  // Random job over a small universe, small caches => plenty of eviction.
  std::vector<std::vector<unsigned>> sets;
  const unsigned kFiles = 30;
  for (int t = 0; t < 12; ++t) {
    std::set<unsigned> files;
    while (files.size() < 3 + rng.index(5))
      files.insert(static_cast<unsigned>(rng.index(kFiles)));
    sets.emplace_back(files.begin(), files.end());
  }
  auto job = make_job(sets, kFiles);
  FakeEngine eng(job, 2, 1, /*capacity=*/8);
  WorkerCentricParams params;
  params.metric = metric;
  params.choose_n = 1;
  WorkerCentricScheduler sched(params);
  sched.attach(eng);
  sched.on_job_submitted();

  for (int step = 0; step < 300; ++step) {
    SiteId site(static_cast<SiteId::underlying_type>(rng.index(2)));
    eng.add_file(site, FileId(static_cast<unsigned>(rng.index(kFiles))));
    if (step % 10 == 0) {
      for (unsigned s = 0; s < 2; ++s)
        for (const workload::Task& t : job.tasks())
          if (sched.is_pending(t.id)) {
            ASSERT_NEAR(sched.weight(SiteId(s), t.id),
                        sched.naive_weight(SiteId(s), t.id), 1e-9)
                << "metric=" << to_string(metric) << " step=" << step;
          }
    }
    if (step == 150) {
      // Retire a task mid-stream; the index must stay consistent.
      for (const workload::Task& t : job.tasks())
        if (sched.is_pending(t.id)) {
          sched.on_worker_idle(WorkerId(0));
          break;
        }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MetricsAndSeeds, IndexConsistency,
    ::testing::Combine(::testing::Values(Metric::kOverlap, Metric::kRest,
                                         Metric::kCombined),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)));

// --- Incremental totals == naive totals (the choose_task fast path) -------

// Recomputes (totalRef, totalRest) the way the paper defines them: a
// scan over every pending task against the live cache.
std::pair<double, double> naive_totals(const WorkerCentricScheduler& sched,
                                       const FakeEngine& eng, SiteId site) {
  const workload::Job& job = eng.job();
  const storage::FileCache& cache = eng.site_cache(site);
  double total_ref = 0;
  double total_rest = 0;
  for (const workload::Task& t : job.tasks()) {
    if (!sched.is_pending(t.id)) continue;
    std::size_t overlap = 0;
    std::uint64_t refs = 0;
    for (FileId f : t.files) {
      if (cache.contains(f)) {
        ++overlap;
        refs += cache.ref_count(f);
      }
    }
    total_ref += static_cast<double>(refs);
    const std::size_t missing = t.files.size() - overlap;
    total_rest += missing == 0 ? kFullOverlapRestWeight
                               : 1.0 / static_cast<double>(missing);
  }
  return {total_ref, total_rest};
}

void expect_totals_match(const WorkerCentricScheduler& sched,
                         const FakeEngine& eng, std::size_t num_sites,
                         const char* where) {
  for (std::size_t s = 0; s < num_sites; ++s) {
    SiteId site(static_cast<SiteId::underlying_type>(s));
    auto [inc_ref, inc_rest] = sched.totals_of(site);
    auto [ref, rest] = naive_totals(sched, eng, site);
    EXPECT_DOUBLE_EQ(inc_ref, ref) << where << " site " << s;
    EXPECT_NEAR(inc_rest, rest, 1e-9) << where << " site " << s;
  }
}

TEST(IncrementalTotals, SurviveAssignEvictFailReAddChurn) {
  // Small caches force eviction; two sites; enough tasks that the bag
  // stays busy across the whole churn sequence.
  Rng rng(99);
  std::vector<std::vector<unsigned>> sets;
  const unsigned kFiles = 24;
  for (int t = 0; t < 10; ++t) {
    std::set<unsigned> files;
    while (files.size() < 2 + rng.index(4))
      files.insert(static_cast<unsigned>(rng.index(kFiles)));
    sets.emplace_back(files.begin(), files.end());
  }
  auto job = make_job(sets, kFiles);
  FakeEngine eng(job, 2, 2, /*capacity=*/6);
  auto sched = make_sched(Metric::kCombined);
  sched.attach(eng);
  sched.on_job_submitted();
  expect_totals_match(sched, eng, 2, "after submit");

  // Warm the caches (accesses + inserts + evictions).
  for (int i = 0; i < 40; ++i)
    eng.add_file(SiteId(static_cast<SiteId::underlying_type>(rng.index(2))),
                 FileId(static_cast<unsigned>(rng.index(kFiles))));
  expect_totals_match(sched, eng, 2, "after warmup");

  // Assign: tasks leave the pending bag.
  sched.on_worker_idle(WorkerId(0));
  sched.on_worker_idle(WorkerId(2));  // second site's worker
  sched.on_worker_idle(WorkerId(1));
  ASSERT_EQ(eng.assignments.size(), 3u);
  expect_totals_match(sched, eng, 2, "after assign");

  // Evict: more churn while tasks are out of the bag.
  for (int i = 0; i < 30; ++i)
    eng.add_file(SiteId(static_cast<SiteId::underlying_type>(rng.index(2))),
                 FileId(static_cast<unsigned>(rng.index(kFiles))));
  expect_totals_match(sched, eng, 2, "after evictions");

  // Complete one instance, then fail the worker holding another: its
  // lost task re-enters the bag via re_add_pending against the LIVE
  // cache state.
  sched.on_task_completed(eng.assignments[0].first,
                          eng.assignments[0].second);
  std::vector<TaskId> lost{eng.assignments[1].first};
  sched.on_worker_failed(eng.assignments[1].second, lost);
  EXPECT_TRUE(sched.is_pending(lost[0]));
  expect_totals_match(sched, eng, 2, "after fail + re_add");

  // And the re-added task keeps tracking subsequent cache churn.
  for (int i = 0; i < 30; ++i)
    eng.add_file(SiteId(static_cast<SiteId::underlying_type>(rng.index(2))),
                 FileId(static_cast<unsigned>(rng.index(kFiles))));
  expect_totals_match(sched, eng, 2, "after post-re_add churn");

  // Drain the bag: totals of an empty bag are exactly zero.
  for (unsigned w = 0; w < 20 && sched.pending_count() > 0; ++w)
    sched.on_worker_idle(WorkerId(w % 4));
  EXPECT_EQ(sched.pending_count(), 0u);
  auto [ref0, rest0] = sched.totals_of(SiteId(0));
  EXPECT_DOUBLE_EQ(ref0, 0.0);
  EXPECT_DOUBLE_EQ(rest0, 0.0);
}

// --- ChooseTask(n) == brute-force top-n (the choice oracle) ---------------
//
// Random interleavings of {cache add (with LRU eviction pressure), peek,
// assign, complete, worker failure}. Before every decision the oracle
// scores each pending task with naive_weight() (straight from the live
// cache), keeps the n best by (weight desc, task id asc) and draws among
// them from its own Rng seeded like the scheduler's, so both consume the
// same draws. Every peek_choice() and every assignment must equal the
// oracle's pick, and the audit sweep must stay clean.

workload::Job random_job(std::mt19937_64& rng, std::size_t num_tasks,
                         std::size_t num_files) {
  std::vector<std::vector<unsigned>> sets(num_tasks);
  for (auto& files : sets) {
    const std::size_t k = 1 + rng() % 4;
    std::set<unsigned> chosen;
    while (chosen.size() < k)
      chosen.insert(static_cast<unsigned>(rng() % num_files));
    files.assign(chosen.begin(), chosen.end());
  }
  return make_job(std::move(sets), num_files);
}

TaskId oracle_choice(const WorkerCentricScheduler& sched,
                     const workload::Job& job, SiteId site, int choose_n,
                     Rng& rng) {
  struct Candidate {
    double weight;
    TaskId task;
  };
  std::vector<Candidate> ranked;
  for (const workload::Task& t : job.tasks())
    if (sched.is_pending(t.id))
      ranked.push_back({sched.naive_weight(site, t.id), t.id});
  std::sort(ranked.begin(), ranked.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              return a.task < b.task;
            });
  ranked.resize(std::min(ranked.size(), static_cast<std::size_t>(choose_n)));
  if (ranked.size() == 1) return ranked[0].task;
  std::vector<double> weights;
  for (const Candidate& c : ranked) weights.push_back(c.weight);
  return ranked[rng.weighted_index(weights)].task;
}

void expect_no_violations(const Scheduler& sched, int step) {
  std::vector<audit::Violation> v;
  sched.audit_collect(v);
  ASSERT_TRUE(v.empty()) << "step " << step << ": [" << v.front().checker
                         << "] " << v.front().message;
}

void run_choice_oracle(Metric metric, int choose_n, CombinedFormula formula,
                       std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::size_t num_tasks = 36;
  const std::size_t num_files = 48;
  const std::size_t num_sites = 3;
  const std::size_t workers_per_site = 2;
  const std::size_t num_workers = num_sites * workers_per_site;
  const workload::Job job = random_job(rng, num_tasks, num_files);

  // Small capacity: adds overflow constantly, exercising kEvicted updates.
  FakeEngine eng(job, num_sites, workers_per_site, /*capacity=*/10);

  WorkerCentricParams params;
  params.metric = metric;
  params.choose_n = choose_n;
  params.combined_formula = formula;
  WorkerCentricScheduler sched(params);
  Rng oracle_rng(params.seed);

  // Pre-warm a few files so build_index() seeds non-trivial counters.
  for (int i = 0; i < 8; ++i) {
    SiteId s(static_cast<SiteId::underlying_type>(rng() % num_sites));
    FileId f(static_cast<FileId::underlying_type>(rng() % num_files));
    eng.add_file(s, f);
  }
  sched.attach(eng);
  sched.on_job_submitted();

  std::vector<std::pair<TaskId, WorkerId>> live;  // assigned, not done
  for (int step = 0; step < 600; ++step) {
    const unsigned op = static_cast<unsigned>(rng() % 100);
    if (op < 45) {
      SiteId s(static_cast<SiteId::underlying_type>(rng() % num_sites));
      FileId f(static_cast<FileId::underlying_type>(rng() % num_files));
      eng.add_file(s, f);
    } else if (op < 60) {
      if (sched.pending_count() == 0) continue;
      // Pure decision check; consumes the same draw on both sides.
      SiteId s(static_cast<SiteId::underlying_type>(rng() % num_sites));
      const TaskId want = oracle_choice(sched, job, s, choose_n, oracle_rng);
      ASSERT_EQ(sched.peek_choice(s), want) << "step " << step << " site "
                                            << s;
    } else if (op < 85) {
      if (sched.pending_count() == 0) continue;
      WorkerId w(static_cast<WorkerId::underlying_type>(rng() % num_workers));
      const TaskId want =
          oracle_choice(sched, job, eng.site_of(w), choose_n, oracle_rng);
      sched.on_worker_idle(w);
      ASSERT_FALSE(eng.assignments.empty());
      ASSERT_EQ(eng.assignments.back(), std::make_pair(want, w))
          << "step " << step;
      live.push_back(eng.assignments.back());
    } else if (op < 93) {
      if (live.empty()) continue;
      const std::size_t i = rng() % live.size();
      const auto [t, w] = live[i];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      sched.on_task_completed(t, w);
    } else {
      if (live.empty()) continue;
      // Crash a worker that holds work; its tasks return to the bag with
      // counters rebuilt from the live caches (the re_add_pending path).
      // No worker ever starved, so the crash assigns nothing and draws
      // nothing.
      const WorkerId w = live[rng() % live.size()].second;
      std::vector<TaskId> lost;
      std::erase_if(live, [&](const std::pair<TaskId, WorkerId>& inst) {
        if (inst.second != w) return false;
        lost.push_back(inst.first);
        return true;
      });
      const std::size_t before = eng.assignments.size();
      sched.on_worker_failed(w, lost);
      ASSERT_EQ(eng.assignments.size(), before) << "step " << step;
    }
    if (step % 37 == 0) expect_no_violations(sched, step);
  }
}

TEST(ChoiceOracle, OverlapChooseOne) {
  run_choice_oracle(Metric::kOverlap, 1, CombinedFormula::kProse, 0xA11CE);
}
TEST(ChoiceOracle, OverlapChooseTwo) {
  run_choice_oracle(Metric::kOverlap, 2, CombinedFormula::kProse, 0xB0B);
}
TEST(ChoiceOracle, RestChooseOne) {
  run_choice_oracle(Metric::kRest, 1, CombinedFormula::kProse, 0xC4B1E);
}
TEST(ChoiceOracle, RestChooseTwo) {
  run_choice_oracle(Metric::kRest, 2, CombinedFormula::kProse, 0xD0D0);
}
TEST(ChoiceOracle, CombinedChooseOne) {
  run_choice_oracle(Metric::kCombined, 1, CombinedFormula::kProse, 0xE66);
}
TEST(ChoiceOracle, CombinedChooseTwo) {
  run_choice_oracle(Metric::kCombined, 2, CombinedFormula::kProse, 0xF00D);
}
TEST(ChoiceOracle, CombinedVerbatimChooseTwo) {
  run_choice_oracle(Metric::kCombined, 2, CombinedFormula::kVerbatim,
                    0xFEED);
}
// n = 3 keeps a longer sorted buffer; n = 64 exceeds the 36-task bag, so
// every pending task reaches the draw.
TEST(ChoiceOracle, OverlapChooseThree) {
  run_choice_oracle(Metric::kOverlap, 3, CombinedFormula::kProse, 0x31);
}
TEST(ChoiceOracle, RestChooseThree) {
  run_choice_oracle(Metric::kRest, 3, CombinedFormula::kProse, 0x32);
}
TEST(ChoiceOracle, CombinedChooseThree) {
  run_choice_oracle(Metric::kCombined, 3, CombinedFormula::kProse, 0x33);
}
TEST(ChoiceOracle, OverlapChooseMoreThanTheBag) {
  run_choice_oracle(Metric::kOverlap, 64, CombinedFormula::kProse, 0x641);
}
TEST(ChoiceOracle, RestChooseMoreThanTheBag) {
  run_choice_oracle(Metric::kRest, 64, CombinedFormula::kProse, 0x642);
}
TEST(ChoiceOracle, CombinedChooseMoreThanTheBag) {
  run_choice_oracle(Metric::kCombined, 64, CombinedFormula::kVerbatim,
                    0x643);
}

}  // namespace
}  // namespace wcs::sched
