// Epoch-validated DRAM cache of NVBM-resident PM-octree nodes.
//
// The descent path re-reads the same root-proximal octants for every
// operation; this cache keeps a fixed DRAM budget of those PNodes keyed
// by NVBM heap offset so repeat reads cost DRAM latency instead of NVBM
// latency. Coherence leans on the tree's CoW epoch rule (pm_octree.hpp):
//
//  * every entry is stamped with the tree epoch at insertion, and lookup
//    only returns entries whose stamp equals the CURRENT epoch. persist()
//    bumping the epoch therefore bulk-invalidates the whole cache in
//    O(1) — no scan, no per-entry work;
//  * within one epoch, NVBM nodes mutate only through the tree's nv_store
//    (write-through update here) and are freed only through nv_free /
//    GC (explicit invalidate / clear here) — so a same-epoch entry is
//    always byte-identical to the device's working image.
//
// Eviction is clock (second chance): one ref bit per slot, a hand that
// sweeps until it finds an unreferenced slot. Deterministic — cache state
// is a pure function of the per-tree access sequence, which the exec
// determinism contract already fixes across thread counts.
//
// The offset -> slot index is a flat open-addressing table allocated once
// at construction: a power of two at least twice the slot count (so the
// load factor never passes 1/2), linear probing from a multiplicative
// hash, backward-shift deletion (no tombstones). Offset 0 marks an empty
// bucket — heap slots start at Heap::heap_begin() > 0.
//
// SINGLE-WRITER DISCIPLINE: this cache MUTATES ON READ — lookup() sets
// the clock ref bit and bumps the stats counters — so it is not merely
// "not thread-safe for writes": two concurrent lookups already race. A
// NodeCache is confined to one logical owner at a time, like the Device
// it fronts. Sequential ownership hand-off (e.g. cluster lanes running
// one after another, or exec workers that never overlap on one tree) is
// fine; simultaneous entry from two threads is a bug. Concurrent serve
// readers therefore get PRIVATE per-context caches (src/serve), never a
// reference to the tree's. Debug builds enforce this with an entry flag:
// any overlapping access fails a PMO_CHECK instead of racing silently.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "pmoctree/node.hpp"

#ifndef NDEBUG
#define PMO_NODE_CACHE_GUARD ConcurrencyGuard guard_(busy_)
#else
#define PMO_NODE_CACHE_GUARD \
  do {                       \
  } while (false)
#endif

namespace pmo::pmoctree {

class NodeCache {
 public:
  /// Lifetime event counts (also mirrored into pmoctree.cache.* telemetry
  /// by the owning tree).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;
  };

  explicit NodeCache(std::size_t budget_bytes)
      : slots_(budget_bytes / sizeof(Entry)),
        index_(std::bit_ceil(std::max<std::size_t>(2 * slots_.size(), 2))),
        mask_(index_.size() - 1),
        shift_(64 - std::countr_zero(index_.size())) {}

  std::size_t capacity() const noexcept { return slots_.size(); }
  std::size_t size() const noexcept { return size_; }
  const Stats& stats() const noexcept { return stats_; }

  /// Index geometry, public so tests can build colliding probe runs.
  std::size_t buckets() const noexcept { return index_.size(); }
  std::size_t home(std::uint64_t offset) const noexcept {
    return static_cast<std::size_t>((offset * 0x9e3779b97f4a7c15ull) >>
                                    shift_);
  }

  /// Returns the cached node for `offset` when present AND stamped with
  /// the current `epoch`; nullptr otherwise. A stale-stamp entry counts
  /// as a miss (it is dead weight awaiting overwrite, not an eviction).
  const PNode* lookup(std::uint64_t offset, std::uint32_t epoch) {
    PMO_NODE_CACHE_GUARD;
    const Bucket& b = index_[find(offset)];
    if (b.offset == 0 || slots_[b.slot].stamp != epoch) {
      ++stats_.misses;
      return nullptr;
    }
    Entry& e = slots_[b.slot];
    e.referenced = true;
    ++stats_.hits;
    return &e.node;
  }

  /// Installs (or refreshes) the node for `offset`, stamped with `epoch`.
  /// Returns true when a live entry was evicted to make room.
  bool insert(std::uint64_t offset, const PNode& node, std::uint32_t epoch) {
    PMO_NODE_CACHE_GUARD;
    PMO_DCHECK(offset != 0);
    if (slots_.empty()) return false;
    std::size_t i = find(offset);
    if (index_[i].offset != 0) {
      Entry& e = slots_[index_[i].slot];
      e.node = node;
      e.stamp = epoch;
      e.referenced = true;
      return false;
    }
    const std::size_t slot = claim_slot();
    Entry& e = slots_[slot];
    bool evicted = false;
    if (e.live) {
      erase_at(find(e.offset));
      i = find(offset);  // the backward shift may have moved the hole
      ++stats_.evictions;
      evicted = true;
    }
    e.offset = offset;
    e.node = node;
    e.stamp = epoch;
    e.referenced = true;
    e.live = true;
    index_[i] = Bucket{offset, slot};
    ++size_;
    return evicted;
  }

  /// Write-through: refreshes the entry if (and only if) present. Writes
  /// do not admit nodes — the cache stays a read-path structure.
  void update(std::uint64_t offset, const PNode& node, std::uint32_t epoch) {
    PMO_NODE_CACHE_GUARD;
    const Bucket& b = index_[find(offset)];
    if (b.offset == 0) return;
    Entry& e = slots_[b.slot];
    e.node = node;
    e.stamp = epoch;
  }

  /// Drops the entry for `offset` (the node was freed: its storage may be
  /// reallocated within the same epoch, so the stamp cannot protect it).
  /// Returns true when an entry was actually dropped.
  bool invalidate(std::uint64_t offset) {
    PMO_NODE_CACHE_GUARD;
    const std::size_t i = find(offset);
    if (index_[i].offset == 0) return false;
    slots_[index_[i].slot].live = false;
    slots_[index_[i].slot].referenced = false;
    erase_at(i);
    ++stats_.invalidations;
    return true;
  }

  /// Carries live entries across a persist's epoch bump: every entry
  /// stamped `from` is re-stamped `to`. Sound because persist explicitly
  /// updates (write-through) or invalidates (free) each offset it touches
  /// before the bump — whatever still carries the old stamp is an offset
  /// whose contents survived the persist unchanged (e.g. an entirely
  /// pruned subtree), so dropping it would only manufacture cold misses.
  /// Returns the number of entries carried over.
  std::size_t restamp(std::uint32_t from, std::uint32_t to) {
    PMO_NODE_CACHE_GUARD;
    std::size_t carried = 0;
    for (Entry& e : slots_) {
      if (e.live && e.stamp == from) {
        e.stamp = to;
        ++carried;
      }
    }
    return carried;
  }

  /// Drops everything (GC sweep / pm_delete: many offsets freed at once).
  /// Returns the number of entries dropped.
  std::size_t clear() {
    PMO_NODE_CACHE_GUARD;
    const std::size_t dropped = size_;
    stats_.invalidations += dropped;
    std::fill(index_.begin(), index_.end(), Bucket{});
    size_ = 0;
    for (Entry& e : slots_) {
      e.live = false;
      e.referenced = false;
    }
    hand_ = 0;
    return dropped;
  }

 private:
  struct Entry {
    std::uint64_t offset = 0;
    PNode node{};
    std::uint32_t stamp = 0;
    bool referenced = false;
    bool live = false;
  };
  /// One index bucket; offset 0 = empty.
  struct Bucket {
    std::uint64_t offset = 0;
    std::size_t slot = 0;
  };

#ifndef NDEBUG
  /// Debug detector for the single-writer discipline: counts threads
  /// currently inside a cache entry point and fails loudly on overlap.
  /// An atomic flag — not a thread-id check — because sequential
  /// ownership hand-off between threads is legal; only simultaneous
  /// entry is not. Wrapped so the (non-movable) atomic does not delete
  /// NodeCache's moves: a moved cache starts with a fresh, idle flag.
  struct BusyFlag {
    std::atomic<int> entries{0};
    BusyFlag() = default;
    BusyFlag(const BusyFlag&) noexcept {}
    BusyFlag& operator=(const BusyFlag&) noexcept { return *this; }
    BusyFlag(BusyFlag&&) noexcept {}
    BusyFlag& operator=(BusyFlag&&) noexcept { return *this; }
  };
  struct ConcurrencyGuard {
    explicit ConcurrencyGuard(BusyFlag& f) : f_(f) {
      PMO_CHECK_MSG(
          f_.entries.fetch_add(1, std::memory_order_acq_rel) == 0,
          "NodeCache accessed from two threads at once — the cache "
          "mutates on read (clock ref bits); give each concurrent "
          "reader its own cache (see src/serve) instead of sharing "
          "the tree's");
    }
    ~ConcurrencyGuard() {
      f_.entries.fetch_sub(1, std::memory_order_acq_rel);
    }
    BusyFlag& f_;
  };
  mutable BusyFlag busy_;
#endif

  std::size_t claim_slot() {
    // Clock sweep: clear ref bits until an unreferenced slot comes up.
    // Terminates within two laps (first lap clears every ref bit).
    for (;;) {
      Entry& e = slots_[hand_];
      const std::size_t slot = hand_;
      hand_ = (hand_ + 1) % slots_.size();
      if (!e.live || !e.referenced) return slot;
      e.referenced = false;
    }
  }

  /// Bucket holding `offset`, or the empty bucket ending its probe run.
  std::size_t find(std::uint64_t offset) const noexcept {
    std::size_t i = home(offset);
    while (index_[i].offset != 0 && index_[i].offset != offset)
      i = (i + 1) & mask_;
    return i;
  }

  /// Empties bucket `i` by backward shift: each later entry of the probe
  /// run whose home does not lie cyclically in (i, j] moves into the hole,
  /// so every remaining entry stays reachable from its home.
  void erase_at(std::size_t i) {
    for (std::size_t j = (i + 1) & mask_; index_[j].offset != 0;
         j = (j + 1) & mask_) {
      const std::size_t h = home(index_[j].offset);
      if (((j - h) & mask_) >= ((j - i) & mask_)) {
        index_[i] = index_[j];
        i = j;
      }
    }
    index_[i] = Bucket{};
    --size_;
  }

  std::vector<Entry> slots_;
  std::vector<Bucket> index_;
  std::size_t mask_;
  int shift_;
  std::size_t size_ = 0;
  std::size_t hand_ = 0;
  Stats stats_;
};

}  // namespace pmo::pmoctree
