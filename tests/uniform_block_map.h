// Block layout for tests that build site caches directly: a uniform
// catalog of `num_files` equal files at content overlap 0. Extents are
// disjoint, so a FileCache over this map obeys the paper's file-count
// capacity law exactly (every file id below `num_files` is addressable).
#pragma once

#include <cstddef>

#include "common/units.h"
#include "storage/block_store.h"
#include "workload/job.h"

namespace wcs::storage {

inline BlockMap uniform_block_map(std::size_t num_files = 1024,
                                  Bytes file_size = megabytes(1.0)) {
  return BlockMap(workload::FileCatalog(num_files, file_size),
                  BlockStoreParams{});
}

}  // namespace wcs::storage
