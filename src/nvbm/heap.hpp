// Persistent slot heap on top of an nvbm::Device.
//
// Layout:
//   [Header (256 B) | slot 0 | slot 1 | ...]   slot i at 256 + 128·i
// Every object is one Heap::kSlotBytes = 128-byte slot (the PM-octree's
// PNode), so every slot is 64-byte aligned and spans exactly two lines.
// Slots carry no header. The durable state is the heap header alone:
// magic, version, capacity, the high-water mark (end of the slots ever
// handed out) and a small table of named durable 8-byte roots.
//
// The free state is volatile: a bitmap of allocated slots below the
// high-water mark and a free stack, both in DRAM, so alloc() and free()
// never touch the device. Recovery rebuilds it by reachability, as Ralloc
// (Cai et al., ISMM 2020) and Makalu (Bhandari et al., OOPSLA 2016) do:
// attach() reads the header only and counts every slot below the durable
// high-water mark as allocated; the owner's first collection (the
// PM-octree's recovery gc(), paper §3.4) sweeps the unreachable ones.
// The one ordering-critical write is the 8-byte root update, exactly as
// the paper argues; set_root() makes the high-water mark durable first
// whenever it moved, so a durable root never names a slot above it.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "nvbm/device.hpp"

namespace pmo::nvbm {

/// Index of a named durable root slot.
inline constexpr int kMaxRoots = 16;

struct HeapStats;

class Heap {
 public:
  /// Bytes per object: every allocation is one slot of this size.
  static constexpr std::size_t kSlotBytes = 128;

  /// Attaches to `device`. When the device carries no valid heap (fresh
  /// memory), formats it. The device reference must outlive the heap.
  explicit Heap(Device& device);

  Device& device() noexcept { return device_; }
  const Device& device() const noexcept { return device_; }

  /// Allocates one slot; returns its offset. Reuses the most recently
  /// freed slot, else bumps the high-water mark. Touches no device memory.
  /// Throws OutOfSpaceError when the device is exhausted.
  std::uint64_t alloc();

  /// Returns the slot to the free stack. Touches no device memory; a
  /// double free or a bad offset throws ContractError.
  void free(std::uint64_t offset);

  /// True if the offset addresses an allocated slot.
  bool is_allocated(std::uint64_t offset) const noexcept;

  /// Durable atomic 8-byte root update: write + flush + barrier, preceded
  /// by the same for the high-water mark if it moved since last written.
  void set_root(int slot, std::uint64_t offset);
  std::uint64_t root(int slot);

  /// Frees, in ascending offset order, every allocated slot for which
  /// `live` returns false. Returns the number of slots reclaimed. Used to
  /// wipe the heap (PmOctree::create and destroy) and as the sweep of
  /// PmOctree::gc, the full collector recovery runs.
  std::size_t sweep(const std::function<bool(std::uint64_t)>& live);

  HeapStats stats() const noexcept;

  /// Offset of the first slot (for tests).
  std::uint64_t heap_begin() const noexcept;

 private:
  struct PersistentHeader {
    std::uint64_t magic = 0;
    std::uint64_t version = 0;
    std::uint64_t capacity = 0;
    std::uint64_t high_water = 0;
    std::uint64_t roots[kMaxRoots] = {};
  };
  static constexpr std::uint64_t kMagic = 0x504d4f435452454eull;  // "PMOCTREN"
  static constexpr std::uint64_t kVersion = 2;

  void format();
  void attach(const PersistentHeader& hdr);
  std::uint64_t high_water() const noexcept;

  Device& device_;
  std::uint64_t slots_ = 0;          ///< slots below the high-water mark
  std::uint64_t durable_slots_ = 0;  ///< the mark as last made durable
  std::uint64_t live_ = 0;           ///< allocated slots
  /// One bit per slot below the high-water mark: set while allocated.
  std::vector<std::uint64_t> allocated_;
  /// Freed slot offsets; alloc() pops the most recent.
  std::vector<std::uint64_t> free_;
};

/// Heap occupancy, read from the volatile allocator state. Reclamation
/// does not consult it: the PM-octree frees what each persist superseded,
/// not at an occupancy threshold.
struct HeapStats {
  std::uint64_t capacity = 0;
  std::uint64_t high_water = 0;    ///< end of the slots ever handed out
  std::uint64_t live_objects = 0;  ///< allocated slots
  std::uint64_t free_objects = 0;  ///< freed slots awaiting reuse

  /// Fraction of device capacity not yet consumed by the heap nor free.
  double available_fraction() const noexcept {
    if (capacity == 0) return 0.0;
    const auto usable =
        capacity - high_water + free_objects * Heap::kSlotBytes;
    return static_cast<double>(usable) / static_cast<double>(capacity);
  }
};

}  // namespace pmo::nvbm
