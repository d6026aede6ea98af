#include "storage/file_cache.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

namespace wcs::storage {

const char* to_string(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kLru: return "lru";
    case EvictionPolicy::kFifo: return "fifo";
    case EvictionPolicy::kMinRef: return "minref";
  }
  return "?";
}

void FileCache::link_back(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.prev = tail_;
  s.next = kNullSlot;
  if (tail_ != kNullSlot) {
    slots_[tail_].next = idx;
  } else {
    head_ = idx;
  }
  tail_ = idx;
}

void FileCache::unlink(std::uint32_t idx) {
  Slot& s = slots_[idx];
  if (s.prev != kNullSlot) {
    slots_[s.prev].next = s.next;
  } else {
    head_ = s.next;
  }
  if (s.next != kNullSlot) {
    slots_[s.next].prev = s.prev;
  } else {
    tail_ = s.prev;
  }
  s.prev = s.next = kNullSlot;
}

void FileCache::record_access(FileId f) {
  WCS_CHECK_MSG(contains(f), "access to absent file " << f);
  Slot& s = slots_[f.value()];
  ++s.refs;
  if (policy_ == EvictionPolicy::kLru) {
    unlink(f.value());
    link_back(f.value());
  }
  notify(CacheEvent::kAccessed, f);
}

std::uint64_t FileCache::covered_blocks(FileId f, bool pinned_only) const {
  const std::uint32_t n = blocks_.blocks(f);
  if (!blocks_.shared()) return 0;  // disjoint extents never overlap
  const std::uint32_t stride = blocks_.stride();
  const std::uint32_t span = blocks_.neighbour_span();
  const std::size_t num_files = blocks_.num_files();
  auto qualifies = [&](std::uint32_t id) {
    if (id >= slots_.size() || !slots_[id].resident) return false;
    return !pinned_only || slots_[id].pins > 0;
  };
  // Nearest qualifying neighbour on each side gives the maximal cover:
  // extents all have length n, so a closer neighbour's extent strictly
  // contains the overlap any farther one contributes.
  std::uint64_t left = 0;   // prefix of f's extent covered from below
  std::uint64_t right = 0;  // suffix covered from above
  for (std::uint32_t j = 1; j <= span; ++j) {
    if (f.value() >= j && qualifies(f.value() - j)) {
      left = n - static_cast<std::uint64_t>(j) * stride;
      break;
    }
  }
  for (std::uint32_t j = 1; j <= span; ++j) {
    if (f.value() + j < num_files && qualifies(f.value() + j)) {
      right = n - static_cast<std::uint64_t>(j) * stride;
      break;
    }
  }
  return std::min<std::uint64_t>(n, left + right);
}

std::uint64_t FileCache::exclusive_blocks(FileId f, bool pinned_only) const {
  return blocks_.blocks(f) - covered_blocks(f, pinned_only);
}

Bytes FileCache::missing_bytes(FileId f) const {
  if (contains(f)) return 0;
  // Disjoint extents: an absent file misses its whole (exact) size.
  if (!blocks_.shared()) return blocks_.file_bytes(f);
  return exclusive_blocks(f, /*pinned_only=*/false) * blocks_.block_size();
}

void FileCache::insert(FileId f) {
  WCS_CHECK_MSG(!contains(f), "file " << f << " already cached");
  Slot& s = slot(f);  // may grow the table; keep the reference local
  // Evict until f's uncovered blocks fit. Evicting can uncover blocks f
  // shares with the victim, so the need is re-derived per round; the
  // victim leaves the resident set each time, so the loop is finite.
  std::uint64_t need = exclusive_blocks(f, /*pinned_only=*/false);
  while (physical_blocks_ + need > capacity_blocks_) {
    evict_one();
    need = exclusive_blocks(f, /*pinned_only=*/false);
  }
  physical_blocks_ += need;
  WCS_DCHECK(s.pins == 0);
  s.resident = 1;
  link_back(f.value());
  ++resident_count_;
  notify(CacheEvent::kAdded, f);
}

bool FileCache::has_insert_room(FileId f) const {
  // Worst case, every unpinned resident is evicted: what remains physical
  // is exactly the union of pinned extents, and the blocks of f still
  // covered are those under a pinned neighbour. insert(f) succeeds iff
  // that end state fits, since its eviction loop stops at or before it.
  return pinned_blocks_ + exclusive_blocks(f, /*pinned_only=*/true) <=
         capacity_blocks_;
}

bool FileCache::try_insert(FileId f) {
  if (!has_insert_room(f)) return false;
  insert(f);
  return true;
}

FileId FileCache::pick_victim() const {
  FileId victim = FileId::invalid();
  if (policy_ == EvictionPolicy::kMinRef) {
    // Min (refs, id) over resident unpinned files — a strict total
    // order, so the victim is independent of scan order. O(n); MinRef
    // is an ablation policy, not a hot default.
    std::size_t best = std::numeric_limits<std::size_t>::max();
    for (std::uint32_t i = head_; i != kNullSlot; i = slots_[i].next) {
      const Slot& s = slots_[i];
      if (s.pins > 0) continue;
      FileId f(i);
      std::size_t r = s.refs;
      if (r < best || (r == best && (!victim.valid() || f < victim))) {
        best = r;
        victim = f;
      }
    }
  } else {
    for (std::uint32_t i = head_; i != kNullSlot; i = slots_[i].next) {
      if (slots_[i].pins == 0) {
        victim = FileId(i);
        break;
      }
    }
  }
  return victim;
}

void FileCache::evict_one() {
  obs::ScopedPhase phase(profiler_, obs::Phase::kCacheEviction);
  FileId victim = pick_victim();
  WCS_CHECK_MSG(victim.valid(),
                "cache full of pinned files (capacity " << capacity_
                << ") — capacity must cover the concurrent working set");
  Slot& s = slots_[victim.value()];
  // Only the blocks no other resident covers become free (the neighbour
  // scan never consults the victim itself, so compute before the
  // residency bit drops).
  physical_blocks_ -= exclusive_blocks(victim, /*pinned_only=*/false);
  unlink(victim.value());
  s.resident = 0;
  --resident_count_;
  ++evictions_;
  if (tracer_ && now_fn_) {
    obs::TraceSpan span;
    span.start = now_fn_();
    span.kind = obs::SpanKind::kEviction;
    span.track = obs_track_;
    tracer_->record(span);
  }
  notify(CacheEvent::kEvicted, victim);
}

void FileCache::pin(FileId f) {
  WCS_CHECK_MSG(contains(f), "pin of absent file " << f);
  Slot& s = slots_[f.value()];
  if (s.pins++ == 0)
    pinned_blocks_ += exclusive_blocks(f, /*pinned_only=*/true);
}

void FileCache::unpin(FileId f) {
  WCS_CHECK_MSG(contains(f), "unpin of absent file " << f);
  Slot& s = slots_[f.value()];
  WCS_CHECK_MSG(s.pins > 0, "unpin of unpinned file " << f);
  if (--s.pins == 0)
    pinned_blocks_ -= exclusive_blocks(f, /*pinned_only=*/true);
}

bool FileCache::pinned(FileId f) const {
  WCS_CHECK_MSG(contains(f), "pinned() on absent file " << f);
  return slots_[f.value()].pins > 0;
}

audit::CacheAuditSnapshot FileCache::audit_snapshot(std::string label) const {
  audit::CacheAuditSnapshot snap;
  snap.label = std::move(label);
  snap.occupancy = resident_count_;
  // Full recount of the slot table against the incremental counters
  // and the intrusive eviction order.
  std::size_t resident = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    if (!s.resident) {
      if (s.prev != kNullSlot || s.next != kNullSlot || i == head_) {
        std::ostringstream os;
        os << "file " << i << " is linked into the eviction order but "
           << "not resident";
        snap.structural.push_back(os.str());
      }
      if (s.pins != 0) {
        std::ostringstream os;
        os << "file " << i << " is pinned but not resident";
        snap.structural.push_back(os.str());
      }
      continue;
    }
    ++resident;
    if (s.pins > 0) ++snap.pinned;
  }
  if (resident != resident_count_) {
    std::ostringstream os;
    os << "slot table holds " << resident << " resident files but the "
       << "cache counts " << resident_count_;
    snap.structural.push_back(os.str());
  }
  // Walk the eviction order; every resident slot must appear exactly
  // once and the links must round-trip. Bound the walk so a cycle
  // cannot hang the auditor.
  std::size_t walked = 0;
  std::uint32_t prev = kNullSlot;
  for (std::uint32_t i = head_; i != kNullSlot; i = slots_[i].next) {
    if (++walked > resident_count_) {
      snap.structural.push_back(
          "eviction order is longer than the resident count (cycle?)");
      break;
    }
    if (!slots_[i].resident) {
      std::ostringstream os;
      os << "file " << i << " is in the eviction order but not resident";
      snap.structural.push_back(os.str());
    }
    if (slots_[i].prev != prev) {
      std::ostringstream os;
      os << "file " << i << " order position does not round-trip";
      snap.structural.push_back(os.str());
    }
    prev = i;
  }
  if (walked != resident_count_ && snap.structural.empty()) {
    std::ostringstream os;
    os << "eviction order holds " << walked << " files but "
       << resident_count_ << " are resident";
    snap.structural.push_back(os.str());
  }
  if (tail_ != prev) {
    snap.structural.push_back("eviction order tail does not round-trip");
  }
  return snap;
}

audit::BlockStoreAuditSnapshot FileCache::block_audit_snapshot(
    std::string label) const {
  audit::BlockStoreAuditSnapshot snap;
  snap.label = std::move(label);
  snap.capacity_blocks = capacity_blocks_;
  snap.physical_blocks = physical_blocks_;
  snap.pinned_blocks = pinned_blocks_;
  // From-scratch recount: resident extents in ascending id order are
  // sorted by first block, so the union is one forward sweep.
  std::uint64_t physical_end = 0;  // exclusive end of the union so far
  std::uint64_t pinned_end = 0;
  bool physical_any = false;
  bool pinned_any = false;
  auto accumulate = [](std::uint64_t& total, std::uint64_t& end, bool& any,
                       const BlockMap::Extent& e) {
    const std::uint64_t begin =
        any ? std::max(e.first, end) : e.first;
    const std::uint64_t stop = e.first + e.count;
    if (stop > begin) total += stop - begin;
    end = any ? std::max(end, stop) : stop;
    any = true;
  };
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    if (!s.resident) continue;
    const BlockMap::Extent e =
        blocks_.extent(FileId(static_cast<FileId::underlying_type>(i)));
    snap.file_block_refs += e.count;
    accumulate(snap.recount_physical, physical_end, physical_any, e);
    if (s.pins > 0)
      accumulate(snap.recount_pinned, pinned_end, pinned_any, e);
  }
  return snap;
}

std::vector<FileId> FileCache::contents() const {
  std::vector<FileId> out;
  out.reserve(resident_count_);
  for (std::size_t i = 0; i < slots_.size(); ++i)
    if (slots_[i].resident)
      out.push_back(FileId(static_cast<FileId::underlying_type>(i)));
  return out;
}

}  // namespace wcs::storage
