// Capacity-bounded file cache of a site's data server.
//
// The paper measures storage capacity in (equally-sized) files (Table 1).
// The cache accounts that capacity in content BLOCKS of the catalog's
// shared block map (storage/block_store.h, docs/data-plane.md):
// capacity_files x blocks-per-file blocks, a resident file holds every
// block of its extent, and blocks shared with other residents are held
// once; residency and eviction order stay file-granular. With disjoint
// extents (content_overlap == 0, uniform catalog) every decision reduces
// exactly to the file-count law (golden-pinned). It also maintains:
//
//   - pinning: files needed by a task that is currently fetching or
//     executing are pinned and never evicted (assumption 5 of the paper's
//     model requires all of a task's files to be present for its whole
//     execution);
//   - persistent reference counts r_i ("the number of past references of
//     the file i at the local storage", Sec. 4.2) — these survive
//     eviction, and feed the `combined` metric;
//   - a change listener so schedulers can maintain incremental
//     per-(site, task) overlap indexes instead of rescanning caches.
//
// Eviction policies: LRU (default), FIFO, and MinRef (evict the file with
// the fewest past references) for the eviction-policy ablation bench.
//
// Storage layout: one 16-byte slot per file id — residency flag, pin
// count, persistent ref count, and intrusive prev/next links forming the
// eviction order. Zero allocations per hit/miss/evict. (The pre-PR-6
// node-based layout lived behind --legacy-layout for one PR as the A/B
// baseline and was removed after the flat goldens soaked.)
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "audit/checkers.h"
#include "common/check.h"
#include "common/ids.h"
#include "common/units.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "storage/block_store.h"

namespace wcs::storage {

enum class EvictionPolicy { kLru, kFifo, kMinRef };

[[nodiscard]] const char* to_string(EvictionPolicy policy);

enum class CacheEvent {
  kAdded,     // file inserted into the cache
  kEvicted,   // file evicted to make room
  kAccessed,  // reference count incremented (file is present)
};

using CacheListener = std::function<void(CacheEvent, FileId)>;

class FileCache {
 public:
  // `blocks` is the catalog's block layout; it must outlive the cache.
  FileCache(const BlockMap& blocks, std::size_t capacity_files,
            EvictionPolicy policy)
      : blocks_(blocks),
        capacity_(capacity_files),
        capacity_blocks_(static_cast<std::uint64_t>(capacity_files) *
                         blocks.blocks_per_file_max()),
        policy_(policy) {
    WCS_CHECK(capacity_files > 0);
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return resident_count_; }
  [[nodiscard]] EvictionPolicy policy() const { return policy_; }

  [[nodiscard]] bool contains(FileId f) const {
    return f.value() < slots_.size() && slots_[f.value()].resident;
  }

  // Record a task's use of a present file: bumps r_i, refreshes recency.
  // The file must be present.
  void record_access(FileId f);

  // Insert a missing file, evicting unpinned files as needed. Throws if
  // the cache is full of pinned files (an invalid configuration — see
  // GridConfig validation). The file must not be present.
  void insert(FileId f);

  // Insert if enough unpinned state can be evicted to make room; returns
  // false and leaves the cache untouched otherwise. Used by opportunistic
  // writers (proactive replication) that must not abort the simulation on
  // a transiently full cache.
  bool try_insert(FileId f);

  // True if insert(f) would succeed without throwing: depends on how much
  // of f's extent pinned residents already cover.
  [[nodiscard]] bool has_insert_room(FileId f) const;

  // Pin/unpin; pins nest. The file must be present.
  void pin(FileId f);
  void unpin(FileId f);
  [[nodiscard]] bool pinned(FileId f) const;

  // Past references r_i of a file at this storage; persists across
  // eviction. Zero for files never seen here.
  [[nodiscard]] std::size_t ref_count(FileId f) const {
    return f.value() < slots_.size() ? slots_[f.value()].refs : 0;
  }

  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

  // Snapshot of resident file ids (ascending id order).
  [[nodiscard]] std::vector<FileId> contents() const;

  // Read-only state snapshot for the invariant auditor: occupancy, pin
  // counts, and structural soundness of the eviction order (links <->
  // residency round-trip). `label` names this cache in violation reports
  // (audit::check_cache_coherence).
  [[nodiscard]] audit::CacheAuditSnapshot audit_snapshot(
      std::string label) const;

  // --- Block accounting --------------------------------------------------
  // Bytes a fetch of `f` must actually move: the blocks of f's extent no
  // resident file covers. 0 for resident files.
  [[nodiscard]] Bytes missing_bytes(FileId f) const;

  // Full block-granular size of `f` (>= missing_bytes; the difference is
  // the dedup saving of a fetch issued now).
  [[nodiscard]] Bytes file_bytes(FileId f) const {
    return blocks_.file_bytes(f);
  }

  [[nodiscard]] std::uint64_t capacity_blocks() const {
    return capacity_blocks_;
  }
  [[nodiscard]] std::uint64_t physical_blocks() const {
    return physical_blocks_;
  }
  [[nodiscard]] std::uint64_t pinned_blocks() const {
    return pinned_blocks_;
  }

  // Block-store page accounting snapshot for the invariant auditor
  // (audit::check_block_store).
  [[nodiscard]] audit::BlockStoreAuditSnapshot block_audit_snapshot(
      std::string label) const;

  // At most one listener; pass nullptr-like (default constructed) to
  // clear. Fired synchronously on every mutation.
  void set_listener(CacheListener listener) { listener_ = std::move(listener); }

  // Attach observability instruments (the single listener slot belongs to
  // the scheduler's incremental index, so tracing gets its own hook).
  // `now_fn` supplies the simulated clock and is only called on actual
  // evictions; `track` is this cache's site id for the trace timeline.
  // Read-only: never changes victim selection.
  void set_obs(obs::PhaseProfiler* profiler, obs::EventTracer* tracer,
               std::function<SimTime()> now_fn, std::uint32_t track) {
    profiler_ = profiler;
    tracer_ = tracer;
    now_fn_ = std::move(now_fn);
    obs_track_ = track;
  }

 private:
  static constexpr std::uint32_t kNullSlot = 0xffffffffu;

  // One 16-byte record per file id. prev/next thread the resident slots
  // into the eviction order (head = next candidate); refs persists
  // across eviction.
  struct Slot {
    std::uint32_t prev = kNullSlot;
    std::uint32_t next = kNullSlot;
    std::uint32_t refs = 0;
    std::uint16_t pins = 0;
    std::uint8_t resident = 0;
    std::uint8_t unused = 0;
  };
  static_assert(sizeof(Slot) == 16);

  Slot& slot(FileId f) {
    if (f.value() >= slots_.size()) {
      std::size_t grown = slots_.empty() ? 64 : slots_.size() * 2;
      if (grown < f.value() + 1) grown = f.value() + 1;
      slots_.resize(grown);
    }
    return slots_[f.value()];
  }

  void link_back(std::uint32_t idx);
  void unlink(std::uint32_t idx);

  void evict_one();
  [[nodiscard]] FileId pick_victim() const;
  void notify(CacheEvent e, FileId f) {
    if (listener_) listener_(e, f);
  }

  // Blocks of f's extent covered by OTHER files satisfying the predicate
  // (resident, or resident-and-pinned). Because extents are contiguous
  // ranges of one shared length, only the nearest qualifying neighbour on
  // each side matters: O(neighbour_span) with no per-block state.
  [[nodiscard]] std::uint64_t covered_blocks(FileId f,
                                             bool pinned_only) const;
  // Blocks of f's extent NOT covered by any other qualifying file.
  [[nodiscard]] std::uint64_t exclusive_blocks(FileId f,
                                               bool pinned_only) const;

  const BlockMap& blocks_;
  std::size_t capacity_ = 0;
  std::uint64_t capacity_blocks_ = 0;
  EvictionPolicy policy_ = EvictionPolicy::kLru;

  std::vector<Slot> slots_;
  std::uint32_t head_ = kNullSlot;  // next eviction candidate
  std::uint32_t tail_ = kNullSlot;  // most recently inserted/accessed
  std::size_t resident_count_ = 0;

  // Distinct blocks covered by >= 1 resident / pinned-resident file,
  // maintained incrementally on insert/evict/pin/unpin transitions.
  std::uint64_t physical_blocks_ = 0;
  std::uint64_t pinned_blocks_ = 0;

  std::uint64_t evictions_ = 0;
  CacheListener listener_;

  // Observability (null/empty when disabled).
  obs::PhaseProfiler* profiler_ = nullptr;
  obs::EventTracer* tracer_ = nullptr;
  std::function<SimTime()> now_fn_;
  std::uint32_t obs_track_ = 0;
};

}  // namespace wcs::storage
