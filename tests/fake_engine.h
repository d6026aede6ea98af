// A minimal in-memory GridEngine for scheduler unit tests: caches are
// plain FileCaches (over a uniform block map of the job's file count) the
// test mutates directly; assignments and cancellations are recorded
// instead of simulated.
#pragma once

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "sched/scheduler.h"
#include "storage/file_cache.h"
#include "uniform_block_map.h"
#include "workload/job.h"

namespace wcs::sched::testing {

class FakeEngine final : public GridEngine {
 public:
  FakeEngine(const workload::Job& job, std::size_t num_sites,
             std::size_t workers_per_site, std::size_t capacity = 1000,
             storage::EvictionPolicy policy = storage::EvictionPolicy::kLru)
      : job_(job),
        workers_per_site_(workers_per_site),
        blocks_(storage::uniform_block_map(job.catalog.num_files())) {
    for (std::size_t s = 0; s < num_sites; ++s)
      caches_.emplace_back(blocks_, capacity, policy);
  }
  // The caches hold a reference to blocks_.
  FakeEngine(const FakeEngine&) = delete;
  FakeEngine& operator=(const FakeEngine&) = delete;

  [[nodiscard]] const workload::Job& job() const override { return job_; }
  [[nodiscard]] std::size_t num_sites() const override {
    return caches_.size();
  }
  [[nodiscard]] std::size_t num_workers() const override {
    return caches_.size() * workers_per_site_;
  }
  [[nodiscard]] SiteId site_of(WorkerId worker) const override {
    return SiteId(static_cast<SiteId::underlying_type>(worker.value() /
                                                       workers_per_site_));
  }
  [[nodiscard]] const storage::FileCache& site_cache(
      SiteId site) const override {
    return caches_.at(site.value());
  }
  void set_cache_listener(SiteId site,
                          storage::CacheListener listener) override {
    caches_.at(site.value()).set_listener(std::move(listener));
  }
  void assign_task(TaskId task, WorkerId worker) override {
    assignments.emplace_back(task, worker);
  }
  bool cancel_task(TaskId task, WorkerId worker) override {
    cancellations.emplace_back(task, worker);
    return true;
  }
  [[nodiscard]] bool worker_alive(WorkerId worker) const override {
    return !dead_workers.count(worker);
  }
  [[nodiscard]] std::size_t worker_backlog(WorkerId worker) const override {
    auto it = backlogs.find(worker);
    return it == backlogs.end() ? 0 : it->second;
  }

  // Test-side cache mutation helpers (fire listeners like the real
  // data server would: insert, then access).
  void add_file(SiteId site, FileId file) {
    storage::FileCache& c = caches_.at(site.value());
    if (!c.contains(file)) c.insert(file);
    c.record_access(file);
  }
  storage::FileCache& cache(SiteId site) { return caches_.at(site.value()); }

  std::vector<std::pair<TaskId, WorkerId>> assignments;
  std::vector<std::pair<TaskId, WorkerId>> cancellations;
  std::set<WorkerId> dead_workers;
  std::map<WorkerId, std::size_t> backlogs;

 private:
  const workload::Job& job_;
  std::size_t workers_per_site_;
  storage::BlockMap blocks_;
  std::vector<storage::FileCache> caches_;
};

// Builds a tiny job from explicit file lists.
inline workload::Job make_job(
    std::vector<std::vector<unsigned>> file_sets, std::size_t num_files,
    Bytes file_size = 1000000) {
  workload::Job job;
  job.set_name("test");
  job.catalog = workload::FileCatalog(num_files, file_size);
  std::vector<FileId> files;
  for (const std::vector<unsigned>& set : file_sets) {
    files.clear();
    for (unsigned f : set) files.push_back(FileId(f));
    job.add_task(files, 1.0);
  }
  workload::validate_job(job);
  return job;
}

}  // namespace wcs::sched::testing
