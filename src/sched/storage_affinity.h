// Task-centric baseline: storage affinity with task replication
// (Santos-Neto et al., JSSPP'04), as characterized by the paper in
// Sec. 3.1:
//
//   "the scheduler first distributes its tasks according to the overlap
//    cardinality. Once the initial assigning is done, it waits until at
//    least one worker becomes idle. Then the scheduler picks a task
//    already assigned to a worker and replicates it to the idle worker.
//    If one of the workers finishes the task, the other cancels the
//    task."
//
// Initial distribution (reconstruction — the paper gives no pseudo-code;
// recorded as a deviation in DESIGN.md §6): tasks are placed one by one,
// each on the site with the largest byte-overlap between the task's
// input set and the site's *projected* storage contents — the files that
// earlier-assigned tasks will have pulled there, tracked with a
// capacity-bounded FIFO "virtual cache" per site. Ties go to the least
// loaded site, then the lowest site id; within a site, to the least
// loaded worker. This reproduces both phenomena the paper attributes to
// task-centric scheduling: sites holding popular files attract more
// tasks (unbalanced assignment), and the placement decision is made long
// before execution (premature decisions — by execution time the real
// cache may have evicted the files the placement assumed).
//
// Replication: an idle worker receives a replica of the incomplete task
// with the largest byte-overlap against the worker's site cache (actual,
// current contents), up to max_replicas instances per task. The first
// instance to finish wins; the scheduler cancels the siblings.
//
// Complexity: the replica pick runs on every idle transition for the
// rest of the run and rescans every task against the worker's site
// cache, O(T * I) per request. A per-site bucket index keyed by byte
// overlap was tried and removed: it lost end to end to this scan
// (DESIGN.md §Performance architecture), so the scheduler keeps no
// state beyond its placement table.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/inline_vec.h"
#include "sched/scheduler.h"

namespace wcs::sched {

struct StorageAffinityParams {
  int max_replicas = 2;  // total concurrent instances per task

  // Initial-distribution load cap: no worker's queue may exceed
  // imbalance_factor * (num_tasks / num_workers). Without a cap the
  // projected-overlap greedy can funnel an entire popular region onto one
  // site, which the paper's measured storage-affinity baseline clearly
  // does not do (its makespan is comparable to the worker-centric
  // algorithms at large capacities, Fig. 4). Reconstruction choice
  // recorded in DESIGN.md §6.
  double imbalance_factor = 1.25;
};

class StorageAffinityScheduler final : public Scheduler {
 public:
  explicit StorageAffinityScheduler(const StorageAffinityParams& params);

  void on_job_submitted() override;
  void on_worker_idle(WorkerId worker) override;
  void on_task_completed(TaskId task, WorkerId worker) override;
  // Crash handling: a lost task whose last instance died is pushed to
  // the least-backlogged live worker (task-centric recovery — the
  // scheduler must actively re-place, it cannot wait to be asked).
  void on_worker_failed(WorkerId worker,
                        const std::vector<TaskId>& lost) override;
  [[nodiscard]] std::string name() const override {
    return "storage-affinity";
  }

  // --- Introspection (tests) -------------------------------------------
  [[nodiscard]] std::span<const WorkerId> placements(TaskId task) const {
    const auto& v = placements_.at(task.value());
    return {v.data(), v.size()};
  }
  [[nodiscard]] bool completed(TaskId task) const {
    return completed_.at(task.value()) != 0;
  }
  [[nodiscard]] std::uint64_t replications() const { return replications_; }

 private:
  void distribute_all();
  // Byte overlap between a task's input set and a site's current cache.
  [[nodiscard]] double cache_affinity(TaskId task, SiteId site) const;

  StorageAffinityParams params_;
  // Active instances per task; two inline slots cover max_replicas = 2
  // (every paper configuration), larger settings spill.
  std::vector<common::InlineVec<WorkerId, 2>> placements_;
  std::vector<char> completed_;
  std::vector<std::uint32_t> worker_load_;  // queued+running per worker
  std::uint64_t replications_ = 0;
};

}  // namespace wcs::sched
