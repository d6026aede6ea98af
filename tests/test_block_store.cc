// Block-level data plane: BlockMap layout laws, FileCache block
// refcount accounting, its reduction to the paper's file-count law at
// content overlap 0 (mirrored churn against a whole-file model over 7
// seeds), the block-store audit checker, and end-to-end dedup runs
// (docs/data-plane.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "audit/checkers.h"
#include "common/rng.h"
#include "common/units.h"
#include "grid/experiment.h"
#include "storage/block_store.h"
#include "storage/file_cache.h"
#include "workload/coadd.h"

namespace wcs::storage {
namespace {

// 24 MB files on a 1 MB grid at overlap 0.5: n = 24, stride = 12, each
// file shares exactly 12 blocks with each adjacent neighbour and none
// with anything farther (neighbour span 1).
workload::FileCatalog uniform_catalog(std::size_t files = 40,
                                      double mb = 24.0) {
  return workload::FileCatalog(files, megabytes(mb));
}

BlockStoreParams overlap_params(double overlap) {
  BlockStoreParams p;
  p.block_size = megabytes(1.0);
  p.content_overlap = overlap;
  return p;
}

TEST(BlockMapLayout, DisjointUniformExtents) {
  auto catalog = uniform_catalog(10, 25.0);
  BlockMap map(catalog, overlap_params(0.0));
  EXPECT_FALSE(map.shared());
  EXPECT_EQ(map.num_files(), 10u);
  EXPECT_EQ(map.blocks(FileId(0)), 25u);
  EXPECT_EQ(map.num_blocks(), 250u);
  EXPECT_EQ(map.neighbour_span(), 0u);
  for (std::uint32_t f = 0; f < 10; ++f) {
    const BlockMap::Extent e = map.extent(FileId(f));
    EXPECT_EQ(e.first, static_cast<std::uint64_t>(f) * 25u);
    EXPECT_EQ(e.count, 25u);
    EXPECT_EQ(map.file_bytes(FileId(f)), catalog.size(FileId(f)));
  }
}

TEST(BlockMapLayout, DisjointTailBlockCarriesTheRemainder) {
  // 25.5 MB files: 26 blocks, the last holding 0.5 MB — file_bytes must
  // stay EXACT so an overlap-0 fetch moves the catalog size byte for byte.
  auto catalog = uniform_catalog(4, 25.5);
  BlockMap map(catalog, overlap_params(0.0));
  EXPECT_EQ(map.blocks(FileId(0)), 26u);
  EXPECT_EQ(map.block_bytes(FileId(0), 24), megabytes(1.0));
  EXPECT_EQ(map.block_bytes(FileId(0), 25), megabytes(0.5));
  EXPECT_EQ(map.file_bytes(FileId(0)), catalog.size(FileId(0)));
}

TEST(BlockMapLayout, OverlappingExtentsSlideByStride) {
  auto catalog = uniform_catalog(10, 24.0);
  BlockMap map(catalog, overlap_params(0.5));
  EXPECT_TRUE(map.shared());
  EXPECT_EQ(map.stride(), 12u);
  EXPECT_EQ(map.neighbour_span(), 1u);
  EXPECT_EQ(map.extent(FileId(0)).first, 0u);
  EXPECT_EQ(map.extent(FileId(1)).first, 12u);
  EXPECT_EQ(map.extent(FileId(2)).first, 24u);
  // 9 strides + one full extent.
  EXPECT_EQ(map.num_blocks(), 9u * 12u + 24u);
  // Shared mode rounds content to block granularity: every block is a
  // full block_size.
  EXPECT_EQ(map.file_bytes(FileId(3)), megabytes(24.0));
  EXPECT_EQ(map.block_bytes(FileId(3), 23), megabytes(1.0));
}

TEST(BlockMapLayout, HeterogeneousCatalogGetsDisjointExtents) {
  workload::FileCatalog catalog;
  catalog.add_file(megabytes(2.0));
  catalog.add_file(megabytes(0.5));
  catalog.add_file(megabytes(3.5));
  // Overlap is a uniform sliding-window notion; heterogeneous catalogs
  // must come out disjoint even when it is set.
  BlockMap map(catalog, overlap_params(0.5));
  EXPECT_FALSE(map.shared());
  EXPECT_EQ(map.extent(FileId(0)).first, 0u);
  EXPECT_EQ(map.extent(FileId(0)).count, 2u);
  EXPECT_EQ(map.extent(FileId(1)).first, 2u);
  EXPECT_EQ(map.extent(FileId(1)).count, 1u);
  EXPECT_EQ(map.extent(FileId(2)).first, 3u);
  EXPECT_EQ(map.extent(FileId(2)).count, 4u);
  EXPECT_EQ(map.num_blocks(), 7u);
  for (std::uint32_t f = 0; f < 3; ++f)
    EXPECT_EQ(map.file_bytes(FileId(f)), catalog.size(FileId(f)));
}

TEST(BlockMapLayout, ZeroByteFileOccupiesOneEmptyBlock) {
  workload::FileCatalog catalog;
  catalog.add_file(megabytes(1.0));
  catalog.add_file(0);
  BlockMap map(catalog, overlap_params(0.0));
  EXPECT_EQ(map.extent(FileId(1)).count, 1u);
  EXPECT_EQ(map.file_bytes(FileId(1)), 0u);
  EXPECT_EQ(map.block_bytes(FileId(1), 0), 0u);
}

TEST(FileCacheBlocks, SharedBlocksAreHeldOnceAndEvictionFreesExclusive) {
  auto catalog = uniform_catalog();
  BlockMap map(catalog, overlap_params(0.5));
  FileCache cache(map, 2, EvictionPolicy::kLru);
  EXPECT_EQ(cache.capacity_blocks(), 48u);  // 2 files x 24 blocks

  cache.insert(FileId(0));
  EXPECT_EQ(cache.physical_blocks(), 24u);
  cache.insert(FileId(1));  // shares 12 blocks with f0
  EXPECT_EQ(cache.physical_blocks(), 36u);
  // f2's exclusive tail still fits: THREE files resident in a cache
  // whose whole-file capacity is two — the dedup payoff.
  cache.insert(FileId(2));
  EXPECT_EQ(cache.physical_blocks(), 48u);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 0u);

  // f3 needs 12 exclusive blocks; evicting LRU-head f0 frees only ITS
  // exclusive 12 (the 12 shared with f1 stay behind).
  cache.insert(FileId(3));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.contains(FileId(0)));
  EXPECT_TRUE(cache.contains(FileId(1)));
  EXPECT_EQ(cache.physical_blocks(), 48u);
}

TEST(FileCacheBlocks, MissingBytesCountsOnlyUncoveredBlocks) {
  auto catalog = uniform_catalog();
  BlockMap map(catalog, overlap_params(0.5));
  FileCache cache(map, 4, EvictionPolicy::kLru);

  EXPECT_EQ(cache.missing_bytes(FileId(2)), megabytes(24.0));
  cache.insert(FileId(1));
  // f2 shares 12 of its 24 blocks with resident f1.
  EXPECT_EQ(cache.missing_bytes(FileId(2)), megabytes(12.0));
  EXPECT_EQ(cache.missing_bytes(FileId(0)), megabytes(12.0));
  // Distance 2: no sharing.
  EXPECT_EQ(cache.missing_bytes(FileId(3)), megabytes(24.0));
  cache.insert(FileId(3));
  // f2 now covered from both sides: nothing to move.
  EXPECT_EQ(cache.missing_bytes(FileId(2)), 0u);
  EXPECT_EQ(cache.missing_bytes(FileId(1)), 0u);  // resident
  EXPECT_EQ(cache.file_bytes(FileId(2)), megabytes(24.0));
}

TEST(FileCacheBlocks, PinnedBlockCounterTracksPinTransitions) {
  auto catalog = uniform_catalog();
  BlockMap map(catalog, overlap_params(0.5));
  FileCache cache(map, 4, EvictionPolicy::kLru);

  cache.insert(FileId(0));
  cache.insert(FileId(1));
  EXPECT_EQ(cache.pinned_blocks(), 0u);
  cache.pin(FileId(0));
  EXPECT_EQ(cache.pinned_blocks(), 24u);
  cache.pin(FileId(1));  // 12 of f1's blocks already pinned via f0
  EXPECT_EQ(cache.pinned_blocks(), 36u);
  cache.pin(FileId(1));  // nested pin: no transition
  EXPECT_EQ(cache.pinned_blocks(), 36u);
  cache.unpin(FileId(1));
  EXPECT_EQ(cache.pinned_blocks(), 36u);
  cache.unpin(FileId(1));
  EXPECT_EQ(cache.pinned_blocks(), 24u);
  cache.unpin(FileId(0));
  EXPECT_EQ(cache.pinned_blocks(), 0u);
}

TEST(FileCacheBlocks, InsertRoomIsExactAgainstPinnedCoverage) {
  auto catalog = uniform_catalog();
  BlockMap map(catalog, overlap_params(0.5));
  FileCache cache(map, 2, EvictionPolicy::kLru);

  cache.insert(FileId(0));
  cache.pin(FileId(0));
  cache.insert(FileId(1));
  cache.pin(FileId(1));
  EXPECT_EQ(cache.pinned_blocks(), 36u);
  // f2 shares 12 pinned blocks with f1: worst case 36 + 12 = 48 <= 48.
  EXPECT_TRUE(cache.has_insert_room(FileId(2)));
  EXPECT_TRUE(cache.try_insert(FileId(2)));
  // f4 shares nothing pinned: 48 + 24 > 48 even after evicting f2.
  EXPECT_FALSE(cache.has_insert_room(FileId(4)));
  EXPECT_FALSE(cache.try_insert(FileId(4)));
  EXPECT_TRUE(cache.contains(FileId(2)));  // failed try left state alone
}

TEST(FileCacheBlocks, AuditSnapshotMatchesIncrementalCounters) {
  auto catalog = uniform_catalog();
  BlockMap map(catalog, overlap_params(0.5));
  FileCache cache(map, 3, EvictionPolicy::kLru);
  Rng rng(99);
  std::vector<int> pins(catalog.num_files(), 0);
  for (int op = 0; op < 4000; ++op) {
    const FileId f(
        static_cast<FileId::underlying_type>(rng.index(catalog.num_files())));
    switch (rng.index(4)) {
      case 0:
        if (!cache.contains(f)) (void)cache.try_insert(f);
        break;
      case 1:
        if (cache.contains(f)) cache.record_access(f);
        break;
      case 2:
        if (cache.contains(f) && pins[f.value()] < 3) {
          cache.pin(f);
          ++pins[f.value()];
        }
        break;
      default:
        if (pins[f.value()] > 0) {
          cache.unpin(f);
          --pins[f.value()];
        }
        break;
    }
    if (op % 250 == 0) {
      const audit::BlockStoreAuditSnapshot snap =
          cache.block_audit_snapshot("churn");
      EXPECT_EQ(snap.physical_blocks, snap.recount_physical);
      EXPECT_EQ(snap.pinned_blocks, snap.recount_pinned);
      std::vector<audit::Violation> violations;
      audit::check_block_store(snap, violations);
      EXPECT_TRUE(violations.empty());
    }
  }
}

// File-count reference cache: the paper's capacity law (Table 1) with
// FileCache's victim rules — LRU/FIFO evict the first unpinned file in
// eviction order (LRU re-queues on access), MinRef the unpinned file with
// the fewest past references, lowest id on ties. Test oracle only.
struct WholeFileModel {
  std::size_t capacity;
  EvictionPolicy policy;
  std::vector<int> refs;  // per file id; persists across eviction
  std::vector<int> pins;  // per file id
  std::vector<FileId> order;  // residents in eviction order, head first
  std::vector<FileId> victims;

  [[nodiscard]] bool contains(FileId f) const {
    return std::find(order.begin(), order.end(), f) != order.end();
  }
  [[nodiscard]] bool has_insert_room() const {
    return order.size() < capacity ||
           std::any_of(order.begin(), order.end(),
                       [&](FileId f) { return pins[f.value()] == 0; });
  }
  bool try_insert(FileId f) {
    if (!has_insert_room()) return false;
    while (order.size() >= capacity) evict_one();
    order.push_back(f);
    return true;
  }
  void record_access(FileId f) {
    ++refs[f.value()];
    if (policy != EvictionPolicy::kLru) return;
    order.erase(std::find(order.begin(), order.end(), f));
    order.push_back(f);
  }
  // Called only when has_insert_room() held: an unpinned victim exists.
  void evict_one() {
    auto victim = order.end();
    for (auto it = order.begin(); it != order.end(); ++it) {
      if (pins[it->value()] > 0) continue;
      if (victim == order.end()) {
        victim = it;
        if (policy != EvictionPolicy::kMinRef) break;
      } else if (refs[it->value()] < refs[victim->value()] ||
                 (refs[it->value()] == refs[victim->value()] &&
                  *it < *victim)) {
        victim = it;
      }
    }
    victims.push_back(*victim);
    order.erase(victim);
  }
};

// The block store's reduction to the paper's law: at content overlap 0
// on a uniform catalog, a FileCache makes the decisions of the
// file-count model under arbitrary insert/access/pin/unpin churn — same
// residents, same victims in the same order, same room answers.
TEST(FileCacheBlocks, MirroredChurnMatchesWholeFileAtOverlapZero) {
  auto catalog = uniform_catalog(60, 25.0);
  BlockMap map(catalog, overlap_params(0.0));
  for (std::uint64_t seed = 1; seed <= 7; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (auto policy : {EvictionPolicy::kLru, EvictionPolicy::kFifo,
                        EvictionPolicy::kMinRef}) {
      const std::vector<int> zeros(catalog.num_files(), 0);
      WholeFileModel whole{5, policy, zeros, zeros, {}, {}};
      FileCache block(map, 5, policy);
      std::vector<FileId> block_victims;
      block.set_listener([&](CacheEvent e, FileId f) {
        if (e == CacheEvent::kEvicted) block_victims.push_back(f);
      });

      Rng rng(seed * 1000003ULL + static_cast<std::uint64_t>(policy));
      for (int op = 0; op < 3000; ++op) {
        const FileId f(static_cast<FileId::underlying_type>(
            rng.index(catalog.num_files())));
        ASSERT_EQ(whole.contains(f), block.contains(f));
        ASSERT_EQ(whole.has_insert_room(), block.has_insert_room(f));
        switch (rng.index(4)) {
          case 0:
            if (!whole.contains(f)) {
              ASSERT_EQ(whole.try_insert(f), block.try_insert(f));
            }
            break;
          case 1:
            if (whole.contains(f)) {
              whole.record_access(f);
              block.record_access(f);
            }
            break;
          case 2:
            if (whole.contains(f) && whole.pins[f.value()] < 2) {
              ++whole.pins[f.value()];
              block.pin(f);
            }
            break;
          default:
            if (whole.pins[f.value()] > 0) {
              --whole.pins[f.value()];
              block.unpin(f);
            }
            break;
        }
      }
      std::sort(whole.order.begin(), whole.order.end());
      EXPECT_EQ(whole.order, block.contents());
      EXPECT_EQ(whole.victims.size(), block.evictions());
      EXPECT_EQ(whole.victims, block_victims);
      // Disjoint extents: the block books must read exactly
      // files x blocks-per-file.
      EXPECT_EQ(block.physical_blocks(), block.size() * 25u);
      const audit::BlockStoreAuditSnapshot snap =
          block.block_audit_snapshot("mirror");
      std::vector<audit::Violation> violations;
      audit::check_block_store(snap, violations);
      EXPECT_TRUE(violations.empty());
    }
  }
}

TEST(BlockStoreIntegration, DedupRunAuditsCleanAndSavesBytes) {
  workload::CoaddParams cp;
  cp.num_tasks = 200;
  cp.seed = 20260808;
  auto job = workload::generate_coadd(cp);

  grid::GridConfig c;
  c.tiers.num_sites = 5;
  c.tiers.workers_per_site = 2;
  c.capacity_files = 3000;
  c.audit = true;  // block-store checker sweeps the live run
  ASSERT_TRUE(c.block_store.has_value());
  c.block_store->content_overlap = 0.5;

  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  const auto r = grid::run_once(c, job, spec, /*seed=*/7);
  EXPECT_EQ(r.tasks_completed, 200u);
  EXPECT_GT(r.total_bytes_saved(), 0.0);
  EXPECT_GT(r.dedup_ratio(), 1.0);
}

// Dedup caches legally hold more files than their file-count capacity
// (capacity is a block law), so an audited run whose caches fill must
// stay clean — the file-count cache-coherence law used to abort it.
TEST(BlockStoreIntegration, DedupRunThatFillsCachesAuditsClean) {
  workload::CoaddParams cp;
  cp.num_tasks = 300;
  cp.seed = 20260808;
  auto job = workload::generate_coadd(cp);

  grid::GridConfig c;
  c.tiers.num_sites = 3;
  c.tiers.workers_per_site = 1;
  c.capacity_files = 150;
  c.audit = true;
  c.block_store->content_overlap = 0.5;

  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  const auto r = grid::run_once(c, job, spec, /*seed=*/7);
  EXPECT_EQ(r.tasks_completed, 300u);
  EXPECT_GT(r.total_evictions(), 0u);  // the caches did fill
  EXPECT_GT(r.total_bytes_saved(), 0.0);
}

// At content overlap 0 the wire carries whole files: every demand fetch
// moves exactly one catalog file and nothing is deduplicated.
TEST(BlockStoreIntegration, OverlapZeroRunMatchesWholeFileByteForByte) {
  workload::CoaddParams cp;
  cp.num_tasks = 150;
  cp.seed = 20260808;
  auto job = workload::generate_coadd(cp);
  ASSERT_TRUE(job.catalog.uniform());

  grid::GridConfig c;
  c.tiers.num_sites = 4;
  c.tiers.workers_per_site = 2;
  c.capacity_files = 3000;
  ASSERT_EQ(c.block_store->content_overlap, 0.0);

  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kCombined;
  const auto r = grid::run_once(c, job, spec, /*seed=*/3);
  EXPECT_EQ(r.tasks_completed, 150u);
  EXPECT_GT(r.total_file_transfers(), 0u);
  EXPECT_EQ(r.total_bytes_transferred(),
            static_cast<double>(r.total_file_transfers()) *
                static_cast<double>(job.catalog.size(FileId(0))));
  EXPECT_EQ(r.total_bytes_saved(), 0.0);
  EXPECT_EQ(r.dedup_ratio(), 1.0);
}

}  // namespace
}  // namespace wcs::storage
