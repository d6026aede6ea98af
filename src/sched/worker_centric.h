// Worker-centric scheduling (the paper's contribution, Sec. 4).
//
// An idle worker requests a task; the scheduler scores every pending task
// for that worker's site with CalculateWeight() and picks one with
// ChooseTask(n):
//
//   overlap_t  = |F_t|                 (files of t already at the site)
//   rest_t     = 1 / (|t| - |F_t|)     (inverse of files still to move)
//   combined_t = ref_t/totalRef + rest_t/totalRest
//
// where ref_t = sum of past reference counts r_i over i in F_t, and
// totalRef/totalRest sum ref_t/rest_t over all pending tasks. The
// combined formula follows the paper's prose; the verbatim printed
// formula (ref_t/totalRef + totalRest/rest_t, which contradicts the
// prose — see DESIGN.md §1) is available as CombinedFormula::kVerbatim
// for the ablation bench.
//
// ChooseTask(n) takes the n best-weighted tasks and samples one with
// probability proportional to weight; n = 1 is the deterministic
// algorithms (overlap/rest/combined), n = 2 the randomized ones
// (rest.2/combined.2).
//
// Complexity: the paper's algorithm is O(T * I) per request (scan all
// tasks, intersect file sets). Two incremental layers make the scan
// O(T) with an O(1) weight per task:
//
//   1. per-(site, task) overlap/ref-sum counters, updated from
//      cache-change notifications, make one weight evaluation O(1);
//   2. the combined metric's totalRef/totalRest aggregates (exact
//      integer sum + missing-count histogram) make the normalizers O(1)
//      per decision instead of a second O(T) scan.
//
// ChooseTask(n) then scans the pending bag once, keeping the n best in a
// short sorted buffer, at a few integer operations per task:
//
//   - rest and overlap compare packed integer keys
//     (count << 32 | task id), count = missing resp. 0xFFFFFFFF -
//     overlap. Both weights are strictly monotone in that count (1/m
//     strictly decreases, and kFullOverlapRestWeight at m = 0 exceeds
//     every 1/m), and the id in the low bits is the id-ascending
//     tie-break, so the key order IS the (weight desc, id asc) order.
//     Only the n winners are turned back into weights for the draw.
//   - combined's rest term depends only on `missing`, so each decision
//     tabulates it once per missing count through the very functions
//     weight_of() uses; a task then costs one ref-term division and one
//     table load, and its weight is bit-identical to weight_of()'s.
//
// A bucketed index over the bag was tried and removed: it won its
// microbenchmark but lost end to end, because every cache event re-keyed
// each pending task that references the file (DESIGN.md §Performance
// architecture). Tests cross-check weights and choices against the naive
// computation under random interleavings, the golden runs pin exact
// totals, and --audit cross-validates every counter and aggregate against
// a brute-force rescan.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/csr.h"
#include "common/inline_vec.h"
#include "common/rng.h"
#include "sched/scheduler.h"

namespace wcs::sched {

enum class Metric { kOverlap, kRest, kCombined };

[[nodiscard]] const char* to_string(Metric metric);

enum class CombinedFormula {
  kProse,    // ref_t/totalRef + rest_t/totalRest (both bigger-is-better)
  kVerbatim  // ref_t/totalRef + totalRest/rest_t (as printed in the paper)
};

// Weight of a fully-resident task (|t| == |F_t|) under the rest metric,
// where the paper's 1/(|t|-|F_t|) is undefined. Any finite rest weight is
// at most 1, so 2 makes "nothing to transfer" strictly best.
inline constexpr double kFullOverlapRestWeight = 2.0;

struct WorkerCentricParams {
  Metric metric = Metric::kRest;
  int choose_n = 1;  // ChooseTask(n); >= 1
  CombinedFormula combined_formula = CombinedFormula::kProse;
  std::uint64_t seed = 7;  // only consumed when choose_n >= 2

  // Optional task replication once the bag is empty (paper Sec. 3.2:
  // replication is ORTHOGONAL to worker-centric scheduling — not needed
  // for balance, but can shave the tail). An idle worker with no pending
  // task receives a replica of the incomplete task with the fewest
  // missing files at its site; first finisher wins.
  bool replicate_when_idle = false;
  int max_replicas = 2;  // total concurrent instances per task
};

class WorkerCentricScheduler final : public Scheduler {
 public:
  explicit WorkerCentricScheduler(const WorkerCentricParams& params);

  void on_job_submitted() override;
  void on_worker_idle(WorkerId worker) override;
  void on_task_completed(TaskId task, WorkerId worker) override;
  // Crash handling: lost tasks whose last instance died return to the
  // pending bag (with their index entries rebuilt against the live cache
  // state), and are immediately offered to workers that previously asked
  // for work when the bag was empty.
  void on_worker_failed(WorkerId worker,
                        const std::vector<TaskId>& lost) override;
  // Open-system arrivals: each task enters the pending bag exactly like
  // a crash re-home (per-site counters rebuilt against the live cache,
  // aggregate and inverted-index re-insertion), then starving
  // workers are fed.
  void on_tasks_arrived(const std::vector<TaskId>& tasks) override;
  [[nodiscard]] bool supports_arrivals() const override { return true; }
  [[nodiscard]] std::string name() const override;

  // Invariant audit: cross-validates every site's incremental aggregates
  // (total_ref + missing-count histogram) against the O(|pending|) scan,
  // and the per-task overlap/ref-sum counters against a full recompute
  // from the live cache contents. This is the auditable promotion of the
  // debug-only WCS_DCHECK in totals().
  void audit_collect(std::vector<audit::Violation>& out) const override;

  // --- Introspection (tests, examples) ---------------------------------

  // CalculateWeight() of a pending task for a requesting worker at `site`,
  // from the incremental index. Task must be pending.
  [[nodiscard]] double weight(SiteId site, TaskId task) const;

  // Same value computed naively from the site cache — O(T * I); the
  // property tests assert weight() == naive_weight() at every step.
  [[nodiscard]] double naive_weight(SiteId site, TaskId task) const;

  [[nodiscard]] std::size_t pending_count() const override {
    return pending_list_.size();
  }
  [[nodiscard]] bool is_pending(TaskId task) const {
    return task.value() < pending_.size() && pending_[task.value()];
  }
  [[nodiscard]] std::size_t overlap_cardinality(SiteId site,
                                                TaskId task) const;

  // Incrementally-maintained (totalRef, totalRest) over the pending bag
  // for `site`. Tests cross-check this against the O(|pending|) scan the
  // combined metric used to pay on every choose_task().
  [[nodiscard]] std::pair<double, double> totals_of(SiteId site) const;

  // Resolves ChooseTask(n) for a worker at `site` WITHOUT assigning or
  // removing the task — the bench/property-test hook for checking the
  // choice against a brute-force top-n. Consumes exactly the RNG draw the
  // real assignment would (none when the top-n has a single candidate).
  // The pending bag must be non-empty.
  [[nodiscard]] TaskId peek_choice(SiteId site) { return choose_task(site); }

 private:
  struct SiteIndex {
    std::vector<std::uint32_t> overlap;   // |F_t| per task
    std::vector<std::uint64_t> ref_sum;   // sum of r_i over F_t per task
    // Aggregates over PENDING tasks only, maintained incrementally so the
    // combined metric's totals are O(1)-ish per decision instead of an
    // O(|pending|) scan. total_ref is exact integer arithmetic;
    // total_rest is derived from a histogram of missing-file counts
    // (rest_t = 1/missing depends only on `missing`), which keeps it
    // exactly reproducible — no floating-point accumulation drift.
    std::uint64_t total_ref = 0;               // sum of ref_sum[t], t pending
    std::vector<std::uint32_t> missing_hist;   // [m] = # pending tasks with
                                               // m files missing at the site
  };

  void build_index();
  void on_cache_event(SiteId site, storage::CacheEvent event, FileId file);
  void remove_pending(TaskId task);
  [[nodiscard]] double weight_of(const SiteIndex& idx, TaskId task,
                                 double total_ref, double total_rest) const;
  [[nodiscard]] double rest_of(const SiteIndex& idx, TaskId task) const;
  // (total_ref, total_rest) over pending tasks for one site, from the
  // incremental aggregates; cross-validated against scan_totals() in
  // debug builds.
  [[nodiscard]] std::pair<double, double> totals(const SiteIndex& idx) const;
  // The pre-optimization O(|pending|) scan, kept for WCS_DCHECK
  // cross-validation.
  [[nodiscard]] std::pair<double, double> scan_totals(
      const SiteIndex& idx) const;
  [[nodiscard]] std::uint32_t missing_of(const SiteIndex& idx,
                                         TaskId task) const {
    return task_size_[task.value()] - idx.overlap[task.value()];
  }
  // ChooseTask(n): the n best pending tasks by (weight desc, id asc),
  // one weighted draw among them.
  [[nodiscard]] TaskId choose_task(SiteId site);

  // Replication phase (only when params_.replicate_when_idle). Returns
  // true if a replica was assigned to the worker.
  bool replicate_for(WorkerId worker);
  // Return a task to the pending bag, rebuilding its per-site counters.
  void re_add_pending(TaskId task);
  // Hand pending tasks to workers that starved on an empty bag.
  void feed_starving();
  // Drop `worker` from the starving list if present.
  void forget_starving(WorkerId worker);

  WorkerCentricParams params_;
  Rng rng_;
  std::vector<SiteIndex> sites_;
  // Inverted file -> pending-tasks index as one CSR pool (three flat
  // arrays) instead of a vector-of-vectors: rows support exactly the
  // mutations the scheduler performs (swap-erase on assignment, bounded
  // re-push after a crash) without per-file heap blocks.
  common::Csr<TaskId> tasks_of_file_;
  std::vector<std::uint32_t> task_size_;  // |t| per task
  std::vector<char> pending_;         // by task id
  std::vector<TaskId> pending_list_;  // dense list for scanning
  std::vector<std::uint32_t> pending_pos_;  // task id -> index in list
  // Replication bookkeeping (kept even when replication is off: the
  // engine reports completions regardless). Two inline slots cover every
  // paper configuration (max_replicas = 2); larger settings spill.
  std::vector<common::InlineVec<WorkerId, 2>> placements_;
  std::vector<char> completed_;
  // Workers that asked for work while the bag was empty, in ask order
  // (deque: feed_starving pops the front in O(1)).
  std::deque<WorkerId> starving_;
};

}  // namespace wcs::sched
