// Flat Morton-keyed cold tier: packed octant pages (ROADMAP item 1).
//
// The pointer-linked PNode costs 136 bytes per octant — 8 child refs plus
// a parent ref that a *cold* (persisted-and-clean) subtree never needs,
// because its topology is fully determined by the sorted key sequence.
// Following Cornerstone's pointer-free octrees built from sorted Morton
// ranges (arXiv 2307.06345) and the binarized per-node encoding of
// Hasbestan & Senocak (arXiv 1712.00408), a compacted subtree is stored as
// its DFS pre-order record sequence:
//
//   record = binarized key (8 B) + subtree skip count (4 B)
//          + child-presence mask (1 B) + CellData payload (48 B)
//
// grouped into fixed 3936-byte SoA pages of 64 records (one key array,
// one skip array, one mask array, one payload array per page — the batch
// descent kernels stream each array contiguously). 61 B of real data per
// octant against the pointer tier's 136 B. The ISSUE's ≤ 32 B/octant
// target is reachable only by quantizing CellData (6 doubles = 48 B);
// this tier stays lossless — the persisted payload must round-trip
// bit-identically through compaction — and takes the 2.2x instead of the
// 4x (see DESIGN.md §11 for the deviation note).
//
// A chain (= one compacted subtree) is ONE heap allocation of
// npages * kPageBytes bytes, so GC, replica shipping and tombstoning
// treat it as a unit, and NodeRef::linear(chain, index) addresses any
// record in O(1).
//
// Topology without pointers: records are in DFS pre-order, so the first
// child of record r is r + 1, and the next sibling of a child c is
// c + skip(c) (skip = subtree record count, Cornerstone's rank/offset
// array collapsed into one cumulative-count word). Descent is
// rank-select over the child mask; exact lookup is binary search over
// the (key, level)-sorted record sequence.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "common/assert.hpp"
#include "common/morton.hpp"
#include "nvbm/device.hpp"
#include "octree/cell_data.hpp"

namespace pmo::pmoctree::linear {

inline constexpr std::uint32_t kPageMagic = 0x4f4d'504cu;  // "LPMO"
inline constexpr std::uint32_t kPageSlots = 64;
/// NodeRef's linear mode carries a 20-bit record index.
inline constexpr std::uint32_t kMaxChainRecords = 1u << 20;

// SoA layout inside one page. All offsets are from the page base.
inline constexpr std::size_t kHeaderBytes = 32;
inline constexpr std::size_t kKeysOff = kHeaderBytes;
inline constexpr std::size_t kSkipOff = kKeysOff + 8 * kPageSlots;
inline constexpr std::size_t kMaskOff = kSkipOff + 4 * kPageSlots;
inline constexpr std::size_t kDataOff = kMaskOff + kPageSlots;
inline constexpr std::size_t kPageBytes = kDataOff + sizeof(CellData) * kPageSlots;
static_assert(kPageBytes == 3936);

/// Per-page header. `count` is the number of live records in this page;
/// `total_records` and `npages` are chain-level and repeated in every
/// page so a page is self-validating after a crash.
struct PageHeader {
  std::uint32_t magic = kPageMagic;
  std::uint32_t count = 0;
  std::uint32_t epoch = 0;          ///< persist epoch that built the chain
  std::uint32_t npages = 0;
  std::uint32_t total_records = 0;
  std::uint32_t reserved[3] = {};
};
static_assert(sizeof(PageHeader) == kHeaderBytes);

// ---- binarized keys (Hasbestan & Senocak) --------------------------------
// B = (1 << 3L) | (key >> 3(kMaxLevel - L)): the level-L prefix of the
// Morton key with a sentinel bit above it, so one u64 word carries both
// key and level. NOTE: the natural integer order of B is NOT the SFC/DFS
// order (a deep descendant of child 0 binarizes above a shallow child 1),
// so every comparison decodes back to (key, level) first.

constexpr std::uint64_t binarize(const LocCode& c) noexcept {
  const int l = c.level();
  return (std::uint64_t{1} << (3 * l)) | (c.key() >> (3 * (kMaxLevel - l)));
}

constexpr int binarized_level(std::uint64_t b) noexcept {
  return (63 - std::countl_zero(b)) / 3;
}

constexpr LocCode debinarize(std::uint64_t b) noexcept {
  const int l = binarized_level(b);
  const std::uint64_t key = (b ^ (std::uint64_t{1} << (3 * l)))
                            << (3 * (kMaxLevel - l));
  return LocCode::from_key(key, l);
}

/// SFC (DFS pre-order) comparison of two binarized keys.
constexpr bool binarized_less(std::uint64_t a, std::uint64_t b) noexcept {
  const int la = binarized_level(a);
  const int lb = binarized_level(b);
  const std::uint64_t ka = (a ^ (std::uint64_t{1} << (3 * la)))
                           << (3 * (kMaxLevel - la));
  const std::uint64_t kb = (b ^ (std::uint64_t{1} << (3 * lb)))
                           << (3 * (kMaxLevel - lb));
  if (ka != kb) return ka < kb;
  return la < lb;
}

/// Number of pages needed for `records` records.
constexpr std::uint32_t pages_for(std::size_t records) noexcept {
  return static_cast<std::uint32_t>((records + kPageSlots - 1) / kPageSlots);
}

/// Absolute device offset of the page holding record `r`.
constexpr std::uint64_t page_offset(std::uint64_t chain,
                                    std::uint32_t r) noexcept {
  return chain + std::uint64_t{r / kPageSlots} * kPageBytes;
}

// ---- chain construction --------------------------------------------------

/// Accumulates records in DFS pre-order, then writes the finished chain
/// to the device as charged stores (so compaction traffic lands in the
/// modeled counters and the crash-sim write buffer like any other
/// pre-flush mutation).
class Builder {
 public:
  struct Record {
    std::uint64_t bkey = 0;
    std::uint32_t skip = 1;
    std::uint8_t mask = 0;
    CellData data;
  };

  /// Appends a record; returns its index. Call close(idx) after all of
  /// the subtree's records have been appended.
  std::size_t add(const LocCode& code, std::uint8_t mask,
                  const CellData& data) {
    Record r;
    r.bkey = binarize(code);
    r.mask = mask;
    r.data = data;
    recs_.push_back(r);
    return recs_.size() - 1;
  }

  /// Seals record `idx`'s subtree: skip = number of records emitted since
  /// (and including) idx. DFS emission order makes this the subtree size.
  void close(std::size_t idx) {
    PMO_DCHECK(idx < recs_.size());
    recs_[idx].skip = static_cast<std::uint32_t>(recs_.size() - idx);
  }

  std::size_t size() const noexcept { return recs_.size(); }
  const std::vector<Record>& records() const noexcept { return recs_; }

  std::size_t bytes() const noexcept {
    return std::size_t{pages_for(recs_.size())} * kPageBytes;
  }

  /// Serializes every page into the device at `chain` (a heap payload of
  /// at least bytes()). Charged, buffered by the crash simulator; the
  /// caller's flush_all() makes the chain durable.
  void write(nvbm::Device& dev, std::uint64_t chain,
             std::uint32_t epoch) const;

 private:
  std::vector<Record> recs_;
};

// ---- chain access --------------------------------------------------------

/// Zero-copy view over a chain's pages via Device::raw. Accessors carry
/// no latency accounting: the owning tree charges through its PageCache
/// and serve::Reader through its private reader model, each with its own
/// determinism surface.
class ChainView {
 public:
  ChainView(nvbm::Device& dev, std::uint64_t chain) : dev_(&dev), chain_(chain) {
    const PageHeader h = header(0);
    PMO_DCHECK(h.magic == kPageMagic);
    npages_ = h.npages;
    total_ = h.total_records;
    epoch_ = h.epoch;
  }

  std::uint64_t chain() const noexcept { return chain_; }
  std::uint32_t pages() const noexcept { return npages_; }
  std::uint32_t total_records() const noexcept { return total_; }
  std::uint32_t epoch() const noexcept { return epoch_; }
  std::uint64_t bytes() const noexcept {
    return std::uint64_t{npages_} * kPageBytes;
  }

  PageHeader header(std::uint32_t page) const {
    return load<PageHeader>(chain_ + std::uint64_t{page} * kPageBytes);
  }

  std::uint64_t bkey(std::uint32_t r) const {
    return load<std::uint64_t>(addr(r, kKeysOff, 8));
  }
  std::uint32_t skip(std::uint32_t r) const {
    return load<std::uint32_t>(addr(r, kSkipOff, 4));
  }
  std::uint8_t mask(std::uint32_t r) const {
    return load<std::uint8_t>(addr(r, kMaskOff, 1));
  }
  CellData data(std::uint32_t r) const {
    return load<CellData>(addr(r, kDataOff, sizeof(CellData)));
  }
  LocCode code(std::uint32_t r) const { return debinarize(bkey(r)); }

  /// Record indices of the present children of `r` (DFS: first child at
  /// r + 1, next sibling at prev + skip(prev)). out[j] is valid only for
  /// set mask bits. Returns the mask.
  std::uint8_t children(std::uint32_t r, std::uint32_t out[8]) const {
    const std::uint8_t m = mask(r);
    std::uint32_t c = r + 1;
    for (int j = 0; j < 8; ++j) {
      if ((m & (1u << j)) == 0) continue;
      out[j] = c;
      c += skip(c);
    }
    return m;
  }

  /// Deepest record whose octant contains `target`: the exact record if
  /// present, else the leaf / partial-group node covering it. Rank-select
  /// descent: one mask probe plus at most 7 skip probes per level.
  std::uint32_t locate(const LocCode& target) const;

  /// Exact (key, level) match via binary search over the DFS pre-order
  /// sequence (sorted by (key asc, level asc)). Returns -1 when absent.
  std::int64_t find(const LocCode& target) const;

  /// Structural validation of every page (magic, counts, skip ranges).
  /// Crash-recovery tests call this on the restored image to prove a
  /// chain is never torn: it is either absent or fully intact.
  bool validate() const;

 private:
  std::uint64_t addr(std::uint32_t r, std::size_t field_off,
                     std::size_t elem) const noexcept {
    return page_offset(chain_, r) + field_off + (r % kPageSlots) * elem;
  }
  template <typename T>
  T load(std::uint64_t off) const {
    T v;
    std::memcpy(&v, dev_->raw(off, sizeof(T)), sizeof(T));
    return v;
  }

  nvbm::Device* dev_;
  std::uint64_t chain_;
  std::uint32_t npages_ = 0;
  std::uint32_t total_ = 0;
  std::uint32_t epoch_ = 0;
};

/// Batched multi-point locate: resolves `n` targets against one chain,
/// stepping all lanes one level per round so the mask/skip probes of a
/// round touch consecutive SoA arrays, fed by the batched BMI2 Morton
/// kernels in common/morton.hpp. Results are identical to calling
/// locate() per target.
void batch_locate(const ChainView& view, const LocCode* targets,
                  std::uint32_t* out, std::size_t n);

// ---- page cache ----------------------------------------------------------

/// Clock cache of *page residency* for the charge model. Chains are
/// immutable after construction, so unlike NodeCache no bytes need to be
/// copied or re-validated — the cache only tracks which pages would be
/// DRAM-resident, deciding whether a record access charges a full-page
/// NVBM streaming read (miss: the whole page is admitted) or a DRAM-side
/// cached read (hit). Invalidation happens only when GC frees a chain.
class PageCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;
  };

  explicit PageCache(std::size_t budget_bytes)
      : slots_(budget_bytes / kPageBytes) {
    index_.reserve(slots_.size());
  }

  std::size_t capacity() const noexcept { return slots_.size(); }
  const Stats& stats() const noexcept { return stats_; }

  /// True = page resident (hit). False = miss; the page is admitted,
  /// evicting the clock victim when full.
  bool touch(std::uint64_t page_off) {
    if (slots_.empty()) {
      ++stats_.misses;
      return false;
    }
    if (const auto it = index_.find(page_off); it != index_.end()) {
      slots_[it->second].referenced = true;
      ++stats_.hits;
      return true;
    }
    ++stats_.misses;
    const std::size_t slot = claim_slot();
    Entry& e = slots_[slot];
    if (e.live) {
      index_.erase(e.page_off);
      ++stats_.evictions;
    }
    e = Entry{page_off, /*referenced=*/true, /*live=*/true};
    index_.emplace(page_off, slot);
    return false;
  }

  /// Drops every cached page of the chain at `chain` (`npages` pages) —
  /// called from the GC sweep before the heap reuses the bytes.
  void invalidate_chain(std::uint64_t chain, std::uint32_t npages) {
    for (std::uint32_t p = 0; p < npages; ++p) {
      const auto it = index_.find(chain + std::uint64_t{p} * kPageBytes);
      if (it == index_.end()) continue;
      slots_[it->second].live = false;
      index_.erase(it);
      ++stats_.invalidations;
    }
  }

  void clear() {
    for (Entry& e : slots_) e = Entry{};
    index_.clear();
  }

 private:
  struct Entry {
    std::uint64_t page_off = 0;
    bool referenced = false;
    bool live = false;
  };

  std::size_t claim_slot() {
    for (;;) {
      Entry& e = slots_[hand_];
      const std::size_t slot = hand_;
      hand_ = (hand_ + 1) % slots_.size();
      if (!e.live || !e.referenced) return slot;
      e.referenced = false;
    }
  }

  std::vector<Entry> slots_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::size_t hand_ = 0;
  Stats stats_;
};

}  // namespace pmo::pmoctree::linear
