#include "workload/coadd.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/rng.h"

namespace wcs::workload {

namespace {

std::size_t clamped_normal(Rng& rng, double mean, double stddev,
                           std::size_t lo, std::size_t hi) {
  double v = rng.normal(mean, stddev);
  v = std::clamp(v, static_cast<double>(lo), static_cast<double>(hi));
  return static_cast<std::size_t>(std::llround(v));
}

}  // namespace

Job generate_coadd(const CoaddParams& p) {
  WCS_CHECK(p.num_tasks > 0);
  WCS_CHECK(p.num_rows > 0);
  WCS_CHECK(p.window_min > 0 && p.window_min <= p.window_max);
  WCS_CHECK(p.file_size > 0);
  WCS_CHECK(std::isfinite(p.mflop_per_file) && p.mflop_per_file > 0);

  Rng rng(p.seed);
  Job job;
  job.set_name("coadd-" + std::to_string(p.num_tasks));

  const std::size_t num_rows = std::min(p.num_rows, p.num_tasks);
  const std::size_t pool_size = std::max<std::size_t>(
      p.popular_picks_per_task == 0 ? 0 : 4,
      static_cast<std::size_t>(p.popular_pool_fraction *
                               static_cast<double>(p.num_tasks)));
  const std::size_t target_distinct =
      p.target_distinct_files != 0
          ? p.target_distinct_files
          : static_cast<std::size_t>(
                std::llround(8.9 * static_cast<double>(p.num_tasks)));

  // Calibrate the per-pass stride mean so the expected strip span hits
  // the distinct-file target: each of the num_passes sweeps covers the
  // whole strip, so
  //   rows * ((windows_per_pass - 1) * stride + window_mean) + pool
  //     = target.
  const std::size_t tasks_per_row =
      (p.num_tasks + num_rows - 1) / num_rows;
  const std::size_t num_passes = std::max<std::size_t>(1, p.num_passes);
  const std::size_t windows_per_pass =
      std::max<std::size_t>(1, (tasks_per_row + num_passes - 1) / num_passes);
  double stride_mean = 1.0;
  if (windows_per_pass > 1) {
    double windows = static_cast<double>(target_distinct) -
                     static_cast<double>(pool_size);
    stride_mean = (windows / static_cast<double>(num_rows) - p.window_mean) /
                  static_cast<double>(windows_per_pass - 1);
    stride_mean = std::max(stride_mean, 0.1);
  }
  // Strides larger than the smallest window would leave unreferenced
  // gap files; cap well below window_min.
  const std::size_t stride_cap = p.window_min - 2;

  // Split the stride mean between the Poisson base and the jump mixture
  // component so the blended mean stays on target.
  WCS_CHECK(p.jump_probability >= 0 && p.jump_probability < 1);
  WCS_CHECK(p.jump_min <= p.jump_max && p.jump_max <= stride_cap);
  const double jump_mean =
      (static_cast<double>(p.jump_min) + static_cast<double>(p.jump_max)) / 2.0;
  double base_mean =
      (stride_mean - p.jump_probability * jump_mean) /
      (1.0 - p.jump_probability);
  base_mean = std::max(base_mean, 0.1);
  std::poisson_distribution<std::size_t> base_stride(base_mean);
  auto draw_stride = [&](Rng& r) {
    std::size_t s = r.bernoulli(p.jump_probability)
                        ? static_cast<std::size_t>(r.uniform_int(
                              static_cast<std::int64_t>(p.jump_min),
                              static_cast<std::int64_t>(p.jump_max)))
                        : base_stride(r.engine());
    return std::min(s, stride_cap);
  };

  // Pass 1: lay out the windows row by row (rows own disjoint file
  // ranges).
  std::size_t next_file = 0;  // global file index cursor
  std::vector<std::vector<std::vector<FileId>>> row_tasks(num_rows);
  std::size_t emitted = 0;
  for (std::size_t row = 0; row < num_rows && emitted < p.num_tasks; ++row) {
    // Row lengths under round-robin emission (pass 2): row r receives
    // task indices r, r+num_rows, ... so earlier rows get the remainder.
    std::size_t row_len = p.num_tasks / num_rows +
                          (row < p.num_tasks % num_rows ? 1 : 0);
    std::size_t row_base = next_file;
    std::size_t row_extent = 0;  // highest file index used + 1
    auto& tasks = row_tasks[row];
    tasks.reserve(row_len);
    // Each pass sweeps the strip from (near) the start; a small random
    // offset per pass keeps the passes from being bit-identical.
    std::size_t cursor = 0;
    std::size_t in_pass = 0;
    for (std::size_t k = 0; k < row_len; ++k) {
      if (in_pass == windows_per_pass) {
        in_pass = 0;
        cursor = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(stride_cap) / 2));
      }
      std::size_t span = clamped_normal(rng, p.window_mean, p.window_stddev,
                                        p.window_min, p.window_max);
      // Exactly round(inclusion * span) files, sampled uniformly from the
      // span (sequential reservoir walk: O(span), deterministic count).
      auto need = static_cast<std::size_t>(
          std::llround(p.inclusion * static_cast<double>(span)));
      need = std::clamp<std::size_t>(need, 1, span);
      std::vector<FileId> files;
      files.reserve(need + p.popular_picks_per_task);
      std::size_t remaining = span;
      for (std::size_t i = 0; i < span && need > 0; ++i, --remaining) {
        if (rng.uniform_real(0.0, 1.0) <
            static_cast<double>(need) / static_cast<double>(remaining)) {
          files.push_back(FileId(
              static_cast<FileId::underlying_type>(row_base + cursor + i)));
          --need;
        }
      }
      row_extent = std::max(row_extent, cursor + span);
      cursor += draw_stride(rng);
      ++in_pass;
      tasks.push_back(std::move(files));
      ++emitted;
    }
    next_file = row_base + row_extent;
  }

  // Pass 2: emit tasks round-robin across rows — like the real survey
  // trace, consecutive task ids are NOT spatial neighbours; neighbours in
  // a stripe are num_rows ids apart. The per-task file sets stay in
  // intermediate vectors until the popular picks land, then the whole
  // bag is CSR-packed into the job in one sweep.
  std::vector<std::vector<FileId>> task_files;
  task_files.reserve(p.num_tasks);
  for (std::size_t k = 0; task_files.size() < p.num_tasks; ++k) {
    for (std::size_t row = 0;
         row < num_rows && task_files.size() < p.num_tasks; ++row) {
      if (k >= row_tasks[row].size()) continue;
      task_files.push_back(std::move(row_tasks[row][k]));
    }
  }

  // Popular calibration files live after all row files.
  const std::size_t pool_base = next_file;
  if (p.popular_picks_per_task > 0 && pool_size > 0) {
    const ZipfCdf pool_zipf(pool_size, p.popular_zipf_exponent);
    for (std::vector<FileId>& files : task_files) {
      std::unordered_set<std::size_t> picked;
      while (picked.size() < std::min(p.popular_picks_per_task, pool_size)) {
        std::size_t rank = pool_zipf.sample(rng);
        if (picked.insert(rank - 1).second)
          files.push_back(FileId(
              static_cast<FileId::underlying_type>(pool_base + rank - 1)));
      }
    }
    next_file = pool_base + pool_size;
  }

  job.catalog = FileCatalog(next_file, p.file_size);
  std::size_t total_refs = 0;
  for (const auto& files : task_files) total_refs += files.size();
  job.reserve_tasks(task_files.size(), total_refs);
  for (const std::vector<FileId>& files : task_files)
    job.add_task(files,
                 p.mflop_per_file * static_cast<double>(files.size()));

  validate_job(job);
  return job;
}

}  // namespace wcs::workload
