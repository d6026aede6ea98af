#include "workload/job.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace wcs::workload {

JobStats compute_stats(const Job& job) {
  JobStats stats;
  stats.num_tasks = job.num_tasks();
  // Dense per-file reference counts (file ids are catalog indexes).
  std::vector<std::size_t> refs(job.catalog.num_files(), 0);
  std::size_t total_files = 0;
  stats.min_files_per_task = stats.num_tasks == 0 ? 0 : SIZE_MAX;
  for (const Task& t : job.tasks()) {
    stats.max_files_per_task =
        std::max(stats.max_files_per_task, t.files.size());
    stats.min_files_per_task =
        std::min(stats.min_files_per_task, t.files.size());
    total_files += t.files.size();
    for (FileId f : t.files) ++refs[f.value()];
  }
  stats.avg_files_per_task =
      stats.num_tasks ? static_cast<double>(total_files) /
                            static_cast<double>(stats.num_tasks)
                      : 0.0;
  for (std::size_t count : refs) {
    if (count == 0) continue;
    ++stats.distinct_files;
    stats.refs_cdf.add(count);
  }
  return stats;
}

void validate_job(const Job& job) {
  // Scratch reused across tasks: duplicate detection by sorting a copy
  // of the (small) file set instead of a per-task hash set.
  std::vector<FileId> sorted;
  for (const Task& t : job.tasks()) {
    WCS_CHECK_MSG(!t.files.empty(), "task " << t.id << " has no input files");
    WCS_CHECK_MSG(std::isfinite(t.mflop) && t.mflop > 0,
                  "task " << t.id << " has no finite compute cost ("
                          << t.mflop << " MFLOP)");
    sorted.assign(t.files.begin(), t.files.end());
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      FileId f = sorted[i];
      WCS_CHECK_MSG(f.valid() && f.value() < job.catalog.num_files(),
                    "task " << t.id << " references unknown file " << f);
      WCS_CHECK_MSG(i == 0 || sorted[i - 1] != f,
                    "task " << t.id << " references file " << f << " twice");
    }
  }
}

}  // namespace wcs::workload
