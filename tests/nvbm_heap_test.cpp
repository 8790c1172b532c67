// Tests for the persistent slot heap: allocation, free-stack reuse,
// roots, attach-after-restart, sweep, and the recovery contract (the
// free state is volatile and rebuilt by the owner's sweep).
#include "nvbm/heap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <vector>

namespace pmo::nvbm {
namespace {

constexpr std::uint64_t kSlot = Heap::kSlotBytes;

Config cfg() {
  Config c;
  c.latency_mode = LatencyMode::kNone;
  return c;
}

Config crash_cfg() {
  Config c = cfg();
  c.crash_sim = true;
  return c;
}

TEST(Heap, FormatsFreshDevice) {
  Device dev(1 << 20, cfg());
  Heap heap(dev);
  const auto s = heap.stats();
  EXPECT_EQ(s.live_objects, 0u);
  EXPECT_EQ(s.capacity, dev.capacity());
  EXPECT_GT(s.available_fraction(), 0.99);
}

TEST(Heap, AllocReturnsDistinctWritableRegions) {
  Device dev(1 << 20, cfg());
  Heap heap(dev);
  const auto a = heap.alloc();
  const auto b = heap.alloc();
  EXPECT_NE(a, b);
  dev.store<std::uint64_t>(a, 1);
  dev.store<std::uint64_t>(b, 2);
  EXPECT_EQ(dev.load<std::uint64_t>(a), 1u);
  EXPECT_EQ(dev.load<std::uint64_t>(b), 2u);
}

TEST(Heap, PayloadSizeRecorded) {
  // Every object is one fixed slot: a full-slot store into one object
  // leaves its neighbours untouched.
  Device dev(1 << 20, cfg());
  Heap heap(dev);
  const auto a = heap.alloc();
  const auto b = heap.alloc();
  EXPECT_EQ(b - a, kSlot);
  EXPECT_TRUE(heap.is_allocated(a));
  std::vector<std::byte> ones(kSlot, std::byte{0xff});
  dev.write(a, ones.data(), ones.size());
  EXPECT_EQ(dev.load<std::uint64_t>(b), 0u);
  EXPECT_EQ(dev.load<std::uint64_t>(a + kSlot - 8), ~std::uint64_t{0});
}

TEST(Heap, FreeThenReuseSameClass) {
  Device dev(1 << 20, cfg());
  Heap heap(dev);
  const auto a = heap.alloc();
  heap.free(a);
  EXPECT_FALSE(heap.is_allocated(a));
  const auto b = heap.alloc();
  EXPECT_EQ(a, b);  // the free stack hands the slot out again
}

TEST(Heap, DoubleFreeDetected) {
  Device dev(1 << 20, cfg());
  Heap heap(dev);
  const auto a = heap.alloc();
  heap.free(a);
  EXPECT_THROW(heap.free(a), ContractError);
}

TEST(Heap, ExhaustionThrowsOutOfSpace) {
  Device dev(1 << 16, cfg());
  Heap heap(dev);
  const std::uint64_t fits = (dev.capacity() - heap.heap_begin()) / kSlot;
  for (std::uint64_t i = 0; i < fits; ++i) heap.alloc();
  EXPECT_THROW(heap.alloc(), OutOfSpaceError);
  EXPECT_EQ(heap.stats().live_objects, fits);
}

TEST(Heap, FreeMakesSpaceReusableWithoutGrowingHighWater) {
  Device dev(1 << 18, cfg());
  Heap heap(dev);
  // Fill-free cycles must not exhaust the device (paper §3.2: freed NVBM
  // regions are reused before GC).
  std::vector<std::uint64_t> offs;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 100; ++i) offs.push_back(heap.alloc());
    for (const auto o : offs) heap.free(o);
    offs.clear();
  }
  EXPECT_EQ(heap.stats().high_water, heap.heap_begin() + 100 * kSlot);
}

TEST(Heap, RootsPersistAndReadBack) {
  Device dev(1 << 20, cfg());
  Heap heap(dev);
  heap.set_root(0, 12345);
  heap.set_root(kMaxRoots - 1, 999);
  EXPECT_EQ(heap.root(0), 12345u);
  EXPECT_EQ(heap.root(kMaxRoots - 1), 999u);
  EXPECT_EQ(heap.root(5), 0u);
  EXPECT_THROW(heap.root(kMaxRoots), ContractError);
}

TEST(Heap, AttachRecoversObjectsAndFreeLists) {
  Device dev(1 << 20, cfg());
  std::uint64_t live_off = 0, freed_off = 0;
  {
    Heap heap(dev);
    live_off = heap.alloc();
    freed_off = heap.alloc();
    dev.store<std::uint64_t>(live_off, 0xabcddcba);
    heap.free(freed_off);
    heap.set_root(0, live_off);
  }
  // Re-attach to the same device (process restart). The free stack was
  // volatile: every slot below the durable high-water mark counts as
  // allocated until the owner sweeps by reachability.
  Heap heap2(dev);
  EXPECT_EQ(heap2.root(0), live_off);
  EXPECT_TRUE(heap2.is_allocated(live_off));
  EXPECT_TRUE(heap2.is_allocated(freed_off));
  EXPECT_EQ(dev.load<std::uint64_t>(live_off), 0xabcddcbaull);
  // Before the sweep, allocation bumps above the mark.
  const auto fresh = heap2.alloc();
  EXPECT_EQ(fresh, heap2.heap_begin() + 2 * kSlot);
  const auto freed = heap2.sweep([&](std::uint64_t off) {
    return off == heap2.root(0) || off == fresh;
  });
  EXPECT_EQ(freed, 1u);
  EXPECT_FALSE(heap2.is_allocated(freed_off));
  // The swept slot is handed out again after the sweep.
  EXPECT_EQ(heap2.alloc(), freed_off);
}

TEST(Heap, RootSurvivesCrashBecauseSetRootFlushes) {
  Device dev(1 << 20, crash_cfg());
  Heap heap(dev);
  const auto off = heap.alloc();
  heap.set_root(0, off);
  Rng rng(3);
  dev.simulate_crash(rng, 0.0);  // drop every unflushed line
  Heap heap2(dev);
  EXPECT_EQ(heap2.root(0), off);
  EXPECT_TRUE(heap2.is_allocated(off));
}

TEST(Heap, UnflushedPayloadLostButAllocatorConsistentAfterCrash) {
  Device dev(1 << 20, crash_cfg());
  Heap heap(dev);
  const auto named = heap.alloc();
  heap.set_root(0, named);  // makes the high-water mark durable
  const auto off = heap.alloc();
  dev.store<std::uint64_t>(off, 0x7777);  // payload not flushed
  Rng rng(4);
  dev.simulate_crash(rng, 0.0);
  Heap heap2(dev);
  // No set_root covered the second allocation: the crash forgets it, its
  // payload is gone, and the heap hands the slot out again.
  EXPECT_TRUE(heap2.is_allocated(named));
  EXPECT_FALSE(heap2.is_allocated(off));
  EXPECT_EQ(dev.load<std::uint64_t>(off), 0u);
  EXPECT_EQ(heap2.alloc(), off);
}

TEST(Heap, ForEachObjectVisitsAll) {
  // sweep() offers every allocated slot to its predicate once, in
  // ascending offset order, and skips the freed ones.
  Device dev(1 << 20, cfg());
  Heap heap(dev);
  std::vector<std::uint64_t> offs;
  for (int i = 0; i < 70; ++i) offs.push_back(heap.alloc());
  std::vector<std::uint64_t> expect;
  for (std::size_t i = 0; i < offs.size(); ++i) {
    if (i % 3 == 1) {
      heap.free(offs[i]);
    } else {
      expect.push_back(offs[i]);
    }
  }
  std::vector<std::uint64_t> seen;
  const auto freed = heap.sweep([&](std::uint64_t off) {
    seen.push_back(off);
    return true;
  });
  EXPECT_EQ(freed, 0u);
  EXPECT_EQ(seen, expect);
}

TEST(Heap, SweepFreesOnlyDeadObjects) {
  Device dev(1 << 20, cfg());
  Heap heap(dev);
  std::vector<std::uint64_t> offs;
  for (int i = 0; i < 20; ++i) offs.push_back(heap.alloc());
  std::set<std::uint64_t> live(offs.begin(), offs.begin() + 5);
  const auto freed =
      heap.sweep([&](std::uint64_t off) { return live.count(off) != 0; });
  EXPECT_EQ(freed, 15u);
  for (const auto off : offs) {
    EXPECT_EQ(heap.is_allocated(off), live.count(off) != 0);
  }
}

TEST(Heap, StatsTrackLiveAndFree) {
  Device dev(1 << 20, cfg());
  Heap heap(dev);
  const auto a = heap.alloc();
  heap.alloc();
  heap.free(a);
  const auto s = heap.stats();
  EXPECT_EQ(s.live_objects, 1u);
  EXPECT_EQ(s.free_objects, 1u);
  EXPECT_EQ(s.high_water, heap.heap_begin() + 2 * kSlot);
}

TEST(Heap, AttachReadsOnlyTheHeader) {
  // Attach cost is independent of how many slots the heap holds.
  auto attach_lines = [](std::uint64_t slots) {
    Device dev(2 << 20, cfg());
    {
      Heap heap(dev);
      std::uint64_t first = 0;
      for (std::uint64_t i = 0; i < slots; ++i) {
        const auto off = heap.alloc();
        if (i == 0) first = off;
      }
      heap.set_root(0, first);
    }
    dev.reset_counters();
    Heap heap(dev);
    EXPECT_EQ(heap.stats().live_objects, slots);
    EXPECT_EQ(dev.counters().lines_written, 0u);
    return dev.counters().lines_read;
  };
  const auto small = attach_lines(10);
  EXPECT_GT(small, 0u);
  EXPECT_EQ(attach_lines(10'000), small);
}

TEST(Heap, AllocFreeAndSweepLeaveTheDeviceUntouched) {
  Device dev(1 << 20, crash_cfg());
  Heap heap(dev);
  dev.reset_counters();
  std::vector<std::uint64_t> offs;
  for (int i = 0; i < 300; ++i) offs.push_back(heap.alloc());
  for (std::size_t i = 0; i < offs.size(); i += 2) heap.free(offs[i]);
  for (int i = 0; i < 50; ++i) offs.push_back(heap.alloc());
  heap.sweep([](std::uint64_t off) { return off % 3 == 0; });
  EXPECT_FALSE(heap.is_allocated(offs[0] + 8));
  const Counters& c = dev.counters();
  EXPECT_EQ(c.reads, 0u);
  EXPECT_EQ(c.writes, 0u);
  EXPECT_EQ(c.flushes, 0u);
  EXPECT_EQ(c.barriers, 0u);
  EXPECT_EQ(dev.dirty_lines(), 0u);
}

TEST(Heap, SlotOffsetsAreLineAligned) {
  Device dev(1 << 20, cfg());
  Heap heap(dev);
  EXPECT_EQ(heap.heap_begin() % 64, 0u);
  std::vector<std::uint64_t> offs;
  for (int i = 0; i < 100; ++i) offs.push_back(heap.alloc());
  for (std::size_t i = 0; i < offs.size(); i += 3) heap.free(offs[i]);
  for (int i = 0; i < 50; ++i) offs.push_back(heap.alloc());
  for (const auto off : offs) {
    EXPECT_EQ(off % 64, 0u) << off;
    EXPECT_EQ((off - heap.heap_begin()) % kSlot, 0u) << off;
  }
}

TEST(Heap, RandomCrashesKeepEveryRootedSlotAllocated) {
  // Random alloc/free/set_root with crashes of random severity. The
  // owner frees only slots no root names, like the PM-octree. After each
  // crash and attach, every slot a root names must be allocated and lie
  // below the high-water mark, and no allocation may hand it out before
  // the recovery sweep (nor after: the sweep keeps what roots name).
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Device dev(1 << 20, crash_cfg());
    auto heap = std::make_unique<Heap>(dev);
    std::map<int, std::uint64_t> roots;  // non-zero durable roots
    std::vector<std::uint64_t> mine;     // allocated, named by no root
    const auto named = [&](std::uint64_t off) {
      return std::any_of(roots.begin(), roots.end(),
                         [&](const auto& r) { return r.second == off; });
    };
    const auto alloc = [&] {
      const auto off = heap->alloc();
      EXPECT_FALSE(named(off)) << "handed out a rooted slot " << off;
      dev.store<std::uint64_t>(off, seed);  // dirty payload for the crash
      mine.push_back(off);
    };
    for (int crash = 0; crash < 12; ++crash) {
      const int ops = 20 + static_cast<int>(rng.below(200));
      for (int op = 0; op < ops; ++op) {
        const auto pick = rng.below(10);
        if (pick < 5 || mine.empty()) {
          alloc();
        } else if (pick < 8) {
          const auto i = rng.below(mine.size());
          heap->free(mine[i]);
          mine.erase(mine.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
          const int slot = static_cast<int>(rng.below(kMaxRoots));
          const auto i = rng.below(mine.size());
          const std::uint64_t off = mine[i];
          mine.erase(mine.begin() + static_cast<std::ptrdiff_t>(i));
          const auto old = roots.find(slot);
          if (old != roots.end()) {
            const std::uint64_t prev = old->second;
            roots.erase(old);
            if (!named(prev)) mine.push_back(prev);
          }
          heap->set_root(slot, off);
          roots[slot] = off;
        }
      }
      dev.simulate_crash(rng, rng.uniform());
      heap = std::make_unique<Heap>(dev);
      mine.clear();
      const std::uint64_t high_water = heap->stats().high_water;
      for (int slot = 0; slot < kMaxRoots; ++slot) {
        const auto it = roots.find(slot);
        ASSERT_EQ(heap->root(slot), it == roots.end() ? 0u : it->second);
        if (it == roots.end()) continue;
        EXPECT_TRUE(heap->is_allocated(it->second)) << it->second;
        EXPECT_LT(it->second, high_water);
      }
      // Before the sweep: allocations bump above the durable mark.
      for (int i = 0; i < 5; ++i) {
        alloc();
        EXPECT_GE(mine.back(), high_water);
      }
      const std::set<std::uint64_t> keep(mine.begin(), mine.end());
      heap->sweep([&](std::uint64_t off) {
        return named(off) || keep.count(off) != 0;
      });
      for (const auto& [slot, off] : roots) {
        EXPECT_TRUE(heap->is_allocated(off)) << off;
      }
    }
  }
}

}  // namespace
}  // namespace pmo::nvbm
