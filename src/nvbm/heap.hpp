// Persistent heap on top of an nvbm::Device.
//
// Layout:
//   [Header | object, object, ...]           (offsets grow upward)
// Every object is an 8-byte ObjHeader followed by its payload. The header
// holds a durable high-water mark and a small table of named durable roots
// (8-byte offsets). Free lists are *volatile* and rebuilt on attach: this
// is deliberate — the PM-octree recovery story (paper §3.4) reclaims
// unreachable objects by mark-and-sweep GC from the consistent root, so
// the allocator itself needs no write-ahead logging. The only operation
// that must be atomic and durable is the 8-byte root update (set_root),
// exactly as the paper argues.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "nvbm/device.hpp"

namespace pmo::nvbm {

/// Index of a named durable root slot.
inline constexpr int kMaxRoots = 16;

/// Statistics of heap occupancy, recounted by walking every object header.
/// Reclamation does not read them: the PM-octree frees what each persist
/// superseded, not at an occupancy threshold.
struct HeapStats {
  std::uint64_t capacity = 0;
  std::uint64_t high_water = 0;    ///< top of ever-allocated region
  std::uint64_t live_bytes = 0;    ///< payload bytes in allocated objects
  std::uint64_t free_bytes = 0;    ///< payload bytes in freed objects
  std::uint64_t live_objects = 0;
  std::uint64_t free_objects = 0;

  /// Fraction of device capacity not yet consumed by the heap nor free.
  double available_fraction() const noexcept {
    if (capacity == 0) return 0.0;
    const auto usable = capacity - high_water + free_bytes;
    return static_cast<double>(usable) / static_cast<double>(capacity);
  }
};

class Heap {
 public:
  /// Attaches to `device`. When the device carries no valid heap (fresh
  /// memory), formats it. The device reference must outlive the heap.
  explicit Heap(Device& device);

  Device& device() noexcept { return device_; }
  const Device& device() const noexcept { return device_; }

  /// Allocates `size` payload bytes; returns the payload offset.
  /// Throws OutOfSpaceError when the device is exhausted.
  std::uint64_t alloc(std::size_t size);

  /// Installs a dedicated fast-path free list for `size`'s class (the
  /// PM-octree registers sizeof(PNode), which dominates allocations):
  /// alloc/free of that class skip the unordered_map lookup entirely.
  /// Existing free entries of the class migrate to the fast list; calling
  /// again with a different size migrates them back first.
  void reserve_class(std::size_t size);

  /// Returns the object to the (volatile) free lists and durably marks the
  /// object header free so a post-crash attach sees it as free.
  void free(std::uint64_t payload_offset);

  /// Payload size recorded for an allocated object.
  std::uint32_t payload_size(std::uint64_t payload_offset);

  /// True if the offset currently addresses an allocated object payload.
  bool is_allocated(std::uint64_t payload_offset);

  /// Durable atomic 8-byte root update: write + flush + barrier.
  void set_root(int slot, std::uint64_t offset);
  std::uint64_t root(int slot);

  /// Invokes fn(payload_offset, payload_size, allocated) for every object
  /// between heap begin and the high-water mark.
  void for_each_object(
      const std::function<void(std::uint64_t, std::uint32_t, bool)>& fn);

  /// Frees, in ascending offset order, every allocated object for which
  /// `live` returns false. Returns the number of objects reclaimed. Used
  /// to wipe the heap (PmOctree::create and destroy) and as the sweep of
  /// PmOctree::gc, the full collector recovery runs.
  std::size_t sweep(const std::function<bool(std::uint64_t)>& live);

  HeapStats stats();

  /// First payload offset a legal object can have (for tests).
  std::uint64_t heap_begin() const noexcept;

 private:
  struct ObjHeader {
    std::uint32_t payload_size = 0;
    std::uint32_t flags = 0;  // kAllocatedFlag or kFreeFlag
  };
  static constexpr std::uint32_t kAllocatedFlag = 0xA110C;
  static constexpr std::uint32_t kFreeFlag = 0xF4EE;

  struct PersistentHeader {
    std::uint64_t magic = 0;
    std::uint64_t version = 0;
    std::uint64_t capacity = 0;
    std::uint64_t high_water = 0;
    std::uint64_t roots[kMaxRoots] = {};
  };
  static constexpr std::uint64_t kMagic = 0x504d4f435452454eull;  // "PMOCTREN"
  static constexpr std::uint64_t kVersion = 1;
  static constexpr std::size_t kAlign = 16;

  void format();
  void attach();
  static std::size_t rounded(std::size_t size) noexcept;
  void write_high_water(std::uint64_t hw);

  Device& device_;
  std::uint64_t high_water_ = 0;  // volatile mirror of header field
  // Exact-size free lists: octants dominate allocations and share a size,
  // so exact-size reuse recycles nearly everything (paper §3.2: freed NVBM
  // regions are reused for new octants before GC runs).
  std::unordered_map<std::size_t, std::vector<std::uint64_t>> free_lists_;
  // Fast path for the one size class that dominates (see reserve_class).
  std::size_t fast_klass_ = 0;
  std::vector<std::uint64_t> fast_list_;
};

/// Typed persistent pointer: a 64-bit offset into a Heap's device. Offset
/// 0 addresses the heap header and therefore doubles as the null value.
template <typename T>
class pptr {
 public:
  constexpr pptr() noexcept = default;
  explicit constexpr pptr(std::uint64_t offset) noexcept : offset_(offset) {}

  constexpr std::uint64_t offset() const noexcept { return offset_; }
  constexpr bool null() const noexcept { return offset_ == 0; }
  explicit constexpr operator bool() const noexcept { return offset_ != 0; }

  /// Loads the pointee (charging device read latency).
  T load(Device& dev) const {
    PMO_DCHECK(!null());
    return dev.load<T>(offset_);
  }
  /// Stores the pointee (charging device write latency).
  void store(Device& dev, const T& value) const {
    PMO_DCHECK(!null());
    dev.store<T>(offset_, value);
  }

  friend constexpr bool operator==(const pptr&, const pptr&) = default;

 private:
  std::uint64_t offset_ = 0;
};

}  // namespace pmo::nvbm
