#include "sched/storage_affinity.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_set>

namespace wcs::sched {

StorageAffinityScheduler::StorageAffinityScheduler(
    const StorageAffinityParams& params)
    : params_(params) {
  WCS_CHECK_MSG(params.max_replicas >= 1, "max_replicas must be >= 1");
}

void StorageAffinityScheduler::on_job_submitted() {
  obs::ScopedPhase phase(profiler_, obs::Phase::kSchedulerDecision);
  const std::size_t num_tasks = engine().job().num_tasks();
  placements_.assign(num_tasks, {});
  completed_.assign(num_tasks, 0);
  worker_load_.assign(engine().num_workers(), 0);
  distribute_all();
}

void StorageAffinityScheduler::distribute_all() {
  const workload::Job& job = engine().job();
  const std::size_t num_sites = engine().num_sites();

  // Projected per-site contents: what the site's storage will hold once
  // the tasks already queued there have run — capacity-bounded FIFO, like
  // the real storage under churn.
  struct VirtualCache {
    std::unordered_set<FileId> present;
    std::deque<FileId> order;
    std::size_t capacity;
  };
  std::vector<VirtualCache> vcache(num_sites);
  std::vector<double> site_load(num_sites, 0);
  for (std::size_t s = 0; s < num_sites; ++s) {
    SiteId site(static_cast<SiteId::underlying_type>(s));
    vcache[s].capacity = engine().site_cache(site).capacity();
    // Current contents count toward the projection (empty on a cold run).
    for (FileId f : engine().site_cache(site).contents()) {
      vcache[s].present.insert(f);
      vcache[s].order.push_back(f);
    }
  }

  // Workers grouped by site, for least-loaded worker selection.
  std::vector<std::vector<WorkerId>> site_workers(num_sites);
  for (std::size_t w = 0; w < engine().num_workers(); ++w) {
    WorkerId worker(static_cast<WorkerId::underlying_type>(w));
    site_workers[engine().site_of(worker).value()].push_back(worker);
  }

  // Per-worker queue cap (see StorageAffinityParams::imbalance_factor).
  const double fair_share = static_cast<double>(job.num_tasks()) /
                            static_cast<double>(engine().num_workers());
  const auto load_cap = static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(fair_share * params_.imbalance_factor)));

  auto least_loaded_worker = [&](std::size_t site) {
    WorkerId best = WorkerId::invalid();
    for (WorkerId w : site_workers[site])
      if (!best.valid() ||
          worker_load_[w.value()] < worker_load_[best.value()])
        best = w;
    return best;
  };

  for (const workload::Task& task : job.tasks()) {
    // Pick the site with maximal projected byte overlap among sites that
    // still have queue headroom; ties to the least loaded site, then the
    // lowest id.
    std::size_t best_site = num_sites;  // invalid
    double best_overlap = -1;
    for (std::size_t s = 0; s < num_sites; ++s) {
      WorkerId candidate = least_loaded_worker(s);
      WCS_CHECK_MSG(candidate.valid(), "site without workers");
      if (worker_load_[candidate.value()] >= load_cap) continue;
      double overlap = 0;
      for (FileId f : task.files)
        if (vcache[s].present.count(f))
          overlap += static_cast<double>(job.catalog.size(f));
      bool wins = best_site == num_sites || overlap > best_overlap ||
                  (overlap == best_overlap &&
                   site_load[s] < site_load[best_site]);
      if (wins) {
        best_overlap = overlap;
        best_site = s;
      }
    }
    // The cap guarantees total headroom >= num_tasks, so a site exists.
    WCS_CHECK_MSG(best_site < num_sites, "no site with queue headroom");
    WorkerId best_worker = least_loaded_worker(best_site);

    placements_[task.id.value()].push_back(best_worker);
    ++worker_load_[best_worker.value()];
    site_load[best_site] += 1;
    engine().assign_task(task.id, best_worker);

    // Update the projection with this task's files.
    VirtualCache& vc = vcache[best_site];
    for (FileId f : task.files) {
      if (!vc.present.insert(f).second) continue;
      vc.order.push_back(f);
      if (vc.present.size() > vc.capacity) {
        FileId victim = vc.order.front();
        vc.order.pop_front();
        vc.present.erase(victim);
      }
    }
  }
}

double StorageAffinityScheduler::cache_affinity(TaskId task,
                                                SiteId site) const {
  const workload::Job& job = engine().job();
  const storage::FileCache& cache = engine().site_cache(site);
  double bytes = 0;
  for (FileId f : job.task(task).files)
    if (cache.contains(f)) bytes += static_cast<double>(job.catalog.size(f));
  return bytes;
}

void StorageAffinityScheduler::on_worker_idle(WorkerId worker) {
  obs::ScopedPhase phase(profiler_, obs::Phase::kSchedulerDecision);
  // Orphan pickup first: a task may have lost its last instance while no
  // live worker was available (total-outage corner under churn).
  for (std::size_t i = 0; i < placements_.size(); ++i) {
    if (completed_[i] || !placements_[i].empty()) continue;
    TaskId t(static_cast<TaskId::underlying_type>(i));
    placements_[i].push_back(worker);
    engine().assign_task(t, worker);
    return;
  }

  // Replication phase: find the incomplete task with the largest storage
  // affinity to this worker's site among tasks that can still gain an
  // instance.
  const SiteId site = engine().site_of(worker);
  TaskId best = TaskId::invalid();
  double best_affinity = -1;
  for (std::size_t i = 0; i < placements_.size(); ++i) {
    if (completed_[i]) continue;
    const auto& instances = placements_[i];
    if (instances.empty()) continue;  // defensive; cannot happen
    if (instances.size() >=
        static_cast<std::size_t>(params_.max_replicas))
      continue;
    TaskId t(static_cast<TaskId::underlying_type>(i));
    if (instances.contains(worker)) continue;  // never two on one worker
    double affinity = cache_affinity(t, site);
    // Ties (typically all-zero affinity) go to the HIGHEST task id: queues
    // were filled in task order, so high ids sit at queue tails, farthest
    // from execution — replicating those migrates real work instead of
    // racing a task that is about to start anyway.
    if (affinity > best_affinity || (affinity == best_affinity && t > best)) {
      best_affinity = affinity;
      best = t;
    }
  }
  if (!best.valid()) return;  // nothing replicatable; worker stays idle

  placements_[best.value()].push_back(worker);
  ++replications_;
  engine().assign_task(best, worker);
}

void StorageAffinityScheduler::on_worker_failed(
    WorkerId worker, const std::vector<TaskId>& lost) {
  for (TaskId t : lost) {
    auto& instances = placements_[t.value()];
    instances.erase_value(worker);
    if (!instances.empty() || completed_[t.value()]) continue;
    // Orphaned: push to the least-backlogged live worker (tie: lowest id).
    WorkerId target = WorkerId::invalid();
    for (std::size_t w = 0; w < engine().num_workers(); ++w) {
      WorkerId cand(static_cast<WorkerId::underlying_type>(w));
      if (cand == worker || !engine().worker_alive(cand)) continue;
      if (!target.valid() ||
          engine().worker_backlog(cand) < engine().worker_backlog(target))
        target = cand;
    }
    // With every worker down the task stays unplaced until a recovered
    // worker goes idle and the orphan scan in on_worker_idle picks it
    // up; the engine flags a truly stuck job at drain.
    if (!target.valid()) continue;
    instances.push_back(target);
    engine().assign_task(t, target);
  }
}

void StorageAffinityScheduler::on_task_completed(TaskId task,
                                                 WorkerId worker) {
  completed_[task.value()] = 1;
  for (WorkerId w : placements_[task.value()]) {
    if (w == worker) continue;
    engine().cancel_task(task, w);
  }
  placements_[task.value()].clear();
}

}  // namespace wcs::sched
