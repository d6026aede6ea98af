// Block-level content map for the data plane.
//
// The paper's Coadd workload reads sliding windows over the sky: adjacent
// files cover overlapping sky regions, so the same bytes are cached
// redundantly when files are the caching unit. The block store models
// that content sharing explicitly: every file is split into fixed-size
// blocks drawn from one global block id space, and consecutive files
// share a configurable fraction of their blocks (the paged-KV idea from
// LLM serving, applied to grid file content).
//
// Layout (uniform catalogs — the paper's assumption 8):
//
//   n      = ceil(file_size / block_size)          blocks per file
//   stride = max(1, n - round(content_overlap * n))
//   file f covers the global blocks [f*stride, f*stride + n)
//
// With content_overlap == 0 the stride equals n, extents are disjoint,
// and block accounting reduces exactly to the paper's file-count
// capacity law (the golden-run suite pins the totals). With overlap > 0,
// neighbouring files share `n - stride` blocks, so a cache that already
// holds file f only needs the non-shared tail of file f+1 —
// missing_bytes() is what the data server actually transfers.
//
// Heterogeneous catalogs (the file-size ablation, unit tests) get
// disjoint per-file extents: content overlap is a property of the
// uniform sliding-window model and does not apply across files of
// different sizes.
//
// Because every extent is one CONTIGUOUS block range of identical length
// (uniform case), per-site residency needs no per-block table at all:
// coverage of a file's extent by other resident files is computable from
// the nearest resident neighbours in O(n/stride), and the physical/
// pinned block counters are maintained incrementally with zero
// allocation (see FileCache).
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/units.h"
#include "workload/job.h"

namespace wcs::storage {

struct BlockStoreParams {
  Bytes block_size = megabytes(1.0);

  // Fraction of a file's blocks shared with each adjacent file id
  // (uniform catalogs only). 0 = disjoint extents, the paper's
  // file-count law; 0.5 = consecutive files share half their blocks.
  double content_overlap = 0.0;
};

class BlockMap {
 public:
  BlockMap(const workload::FileCatalog& catalog,
           const BlockStoreParams& params);

  // Global block range covered by a file: [first, first + count).
  struct Extent {
    std::uint64_t first = 0;
    std::uint32_t count = 0;
  };
  [[nodiscard]] Extent extent(FileId f) const;

  [[nodiscard]] std::uint32_t blocks(FileId f) const {
    return extent(f).count;
  }

  // Full byte size of a file at block granularity. Equals the catalog
  // size when extents are disjoint; with shared extents every block
  // counts a full block_size (content is rounded up to block
  // granularity so shared blocks have one well-defined size).
  [[nodiscard]] Bytes file_bytes(FileId f) const;

  // Byte contribution of one block of `f` (block_size except possibly
  // the extent's last block in disjoint mode).
  [[nodiscard]] Bytes block_bytes(FileId f, std::uint32_t index) const;

  [[nodiscard]] Bytes block_size() const { return params_.block_size; }
  [[nodiscard]] std::size_t num_files() const { return num_files_; }
  [[nodiscard]] std::uint64_t num_blocks() const { return num_blocks_; }

  // True when consecutive uniform files share blocks (stride < n).
  [[nodiscard]] bool shared() const { return uniform_ && stride_ < blocks_; }

  [[nodiscard]] std::uint32_t blocks_per_file_max() const;

  // Uniform sliding-window geometry (meaningful only when shared()).
  [[nodiscard]] std::uint32_t stride() const { return stride_; }

  // Largest id distance between two files whose extents can overlap.
  [[nodiscard]] std::uint32_t neighbour_span() const {
    return shared() ? (blocks_ - 1) / stride_ : 0;
  }

 private:
  BlockStoreParams params_;
  bool uniform_ = true;
  std::size_t num_files_ = 0;
  std::uint64_t num_blocks_ = 0;

  // Uniform mode: every file has `blocks_` blocks, extents advance by
  // `stride_` block ids per file, and the last block of a disjoint
  // extent holds `tail_bytes_`.
  std::uint32_t blocks_ = 0;
  std::uint32_t stride_ = 0;
  Bytes tail_bytes_ = 0;

  // Heterogeneous mode: explicit per-file extents (always disjoint).
  std::vector<std::uint64_t> first_;  // size num_files_ + 1
  std::vector<Bytes> tail_;           // per-file last-block bytes
};

}  // namespace wcs::storage
