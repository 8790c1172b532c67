// Hot-node cache coherence tests.
//
// The epoch-validated DRAM node cache (pmoctree/node_cache.hpp) is a pure
// read-path acceleration: with the cache on, every modeled output that is
// not an explicit cache metric must be BIT-IDENTICAL to the cache-off
// run — tree structure, payloads, PersistStats, DRAM counters, NVBM write
// traffic and wear.
// These tests drive randomized interleavings of refine / coarsen /
// update / persist / transform / restore against a cache-on and a
// cache-off tree fed by the same RNG stream and compare everything.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "pmoctree/node_cache.hpp"
#include "pmoctree/pm_octree.hpp"

namespace pmo::pmoctree {
namespace {

CellData cell(double vof) {
  CellData d;
  d.vof = vof;
  return d;
}

// ---------------------------------------------------------------------------
// NodeCache unit behaviour
// ---------------------------------------------------------------------------

PNode node_with(double vof) {
  PNode n{};
  n.data.vof = vof;
  return n;
}

TEST(NodeCacheUnit, LookupHitsOnlyCurrentEpoch) {
  NodeCache cache(8 * sizeof(PNode) * 4);  // comfortably > 1 slot
  cache.insert(100, node_with(1.0), /*epoch=*/1);
  ASSERT_NE(cache.lookup(100, 1), nullptr);
  EXPECT_DOUBLE_EQ(cache.lookup(100, 1)->data.vof, 1.0);
  // Epoch bump = O(1) bulk invalidation: same entry, stale stamp.
  EXPECT_EQ(cache.lookup(100, 2), nullptr);
  EXPECT_GE(cache.stats().misses, 1u);
  // Re-inserting under the new epoch revives the offset.
  cache.insert(100, node_with(2.0), 2);
  ASSERT_NE(cache.lookup(100, 2), nullptr);
  EXPECT_DOUBLE_EQ(cache.lookup(100, 2)->data.vof, 2.0);
}

TEST(NodeCacheUnit, UpdateIsWriteThroughNotAdmit) {
  NodeCache cache(64 * sizeof(PNode));
  cache.update(42, node_with(3.0), 1);  // absent: must NOT admit
  EXPECT_EQ(cache.size(), 0u);
  cache.insert(42, node_with(1.0), 1);
  cache.update(42, node_with(3.0), 1);
  ASSERT_NE(cache.lookup(42, 1), nullptr);
  EXPECT_DOUBLE_EQ(cache.lookup(42, 1)->data.vof, 3.0);
}

TEST(NodeCacheUnit, InvalidateDropsAndCounts) {
  NodeCache cache(64 * sizeof(PNode));
  cache.insert(7, node_with(1.0), 1);
  EXPECT_FALSE(cache.invalidate(999));  // absent offset: no-op
  EXPECT_TRUE(cache.invalidate(7));
  EXPECT_EQ(cache.lookup(7, 1), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(NodeCacheUnit, ClockEvictionWithinBudget) {
  // Budget for exactly 4 entries; inserting more must evict, never grow.
  NodeCache cache(4 * (sizeof(PNode) + 32));
  const std::size_t cap = cache.capacity();
  ASSERT_GE(cap, 2u);
  for (std::uint64_t off = 0; off < 3 * cap; ++off) {
    cache.insert(off * 64 + 64, node_with(1.0), 1);
    EXPECT_LE(cache.size(), cap);
  }
  EXPECT_EQ(cache.stats().evictions, 2 * cap);
}

TEST(NodeCacheUnit, ZeroBudgetNeverStoresAnything) {
  NodeCache cache(0);
  EXPECT_EQ(cache.capacity(), 0u);
  EXPECT_FALSE(cache.insert(64, node_with(1.0), 1));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(NodeCacheUnit, ClearDropsEverythingAndReports) {
  NodeCache cache(64 * sizeof(PNode));
  cache.insert(64, node_with(1.0), 1);
  cache.insert(128, node_with(2.0), 1);
  EXPECT_EQ(cache.clear(), 2u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookup(64, 1), nullptr);
}

/// Reference clock cache over an ordered map: the same slot, hand, stamp
/// and stats rules as NodeCache, with an index that cannot collide.
class ModelCache {
 public:
  explicit ModelCache(std::size_t capacity) : slots_(capacity) {}

  std::size_t size() const { return index_.size(); }
  const NodeCache::Stats& stats() const { return stats_; }

  const double* lookup(std::uint64_t off, std::uint32_t epoch) {
    const auto it = index_.find(off);
    if (it == index_.end() || slots_[it->second].stamp != epoch) {
      ++stats_.misses;
      return nullptr;
    }
    Slot& e = slots_[it->second];
    e.referenced = true;
    ++stats_.hits;
    return &e.vof;
  }

  bool insert(std::uint64_t off, double vof, std::uint32_t epoch) {
    if (const auto it = index_.find(off); it != index_.end()) {
      slots_[it->second] = {off, vof, epoch, true, true};
      return false;
    }
    std::size_t slot = 0;
    for (;;) {
      slot = hand_;
      hand_ = (hand_ + 1) % slots_.size();
      if (!slots_[slot].live || !slots_[slot].referenced) break;
      slots_[slot].referenced = false;
    }
    const bool evicted = slots_[slot].live;
    if (evicted) {
      index_.erase(slots_[slot].offset);
      ++stats_.evictions;
    }
    slots_[slot] = {off, vof, epoch, true, true};
    index_[off] = slot;
    return evicted;
  }

  void update(std::uint64_t off, double vof, std::uint32_t epoch) {
    const auto it = index_.find(off);
    if (it == index_.end()) return;
    slots_[it->second].vof = vof;
    slots_[it->second].stamp = epoch;
  }

  bool invalidate(std::uint64_t off) {
    const auto it = index_.find(off);
    if (it == index_.end()) return false;
    slots_[it->second].live = false;
    slots_[it->second].referenced = false;
    index_.erase(it);
    ++stats_.invalidations;
    return true;
  }

  std::size_t restamp(std::uint32_t from, std::uint32_t to) {
    std::size_t carried = 0;
    for (Slot& e : slots_) {
      if (e.live && e.stamp == from) {
        e.stamp = to;
        ++carried;
      }
    }
    return carried;
  }

  std::size_t clear() {
    const std::size_t dropped = index_.size();
    stats_.invalidations += dropped;
    index_.clear();
    for (Slot& e : slots_) e.live = e.referenced = false;
    hand_ = 0;
    return dropped;
  }

 private:
  struct Slot {
    std::uint64_t offset = 0;
    double vof = 0;
    std::uint32_t stamp = 0;
    bool referenced = false;
    bool live = false;
  };
  std::vector<Slot> slots_;
  std::map<std::uint64_t, std::size_t> index_;
  std::size_t hand_ = 0;
  NodeCache::Stats stats_;
};

TEST(NodeCacheUnit, FlatIndexMatchesReferenceClockCache) {
  NodeCache cache(5 * (sizeof(PNode) + 16));
  const std::size_t cap = cache.capacity();
  ASSERT_GE(cap, 3u);
  ASSERT_LE(cap, 8u);
  const std::size_t last = cache.buckets() - 1;
  // Offsets sharing the last home bucket wrap their probe run past the
  // table end into buckets 0, 1, ...; offsets homed at 0 and 1 collide
  // with that wrapped run. Backward-shift deletion inside such runs is
  // what the differential drive exercises.
  std::vector<std::uint64_t> pool;
  std::size_t at_last = 0, at_zero = 0, at_one = 0, other = 0;
  for (std::uint64_t off = 8; pool.size() < 14; off += 8) {
    const std::size_t h = cache.home(off);
    std::size_t* quota = h == last ? &at_last
                         : h == 0  ? &at_zero
                         : h == 1  ? &at_one
                                   : &other;
    const std::size_t limit = h == last ? 5 : 3;
    if (*quota < limit) {
      ++*quota;
      pool.push_back(off);
    }
  }
  ASSERT_EQ(at_last, 5u);

  ModelCache model(cap);
  Rng rng(0xcac4e);
  std::uint32_t epoch = 1;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t off = pool[rng.below(pool.size())];
    const double vof = static_cast<double>(step);
    const auto op = rng.below(100);
    if (op < 35) {
      // Mostly current-epoch reads, some with a stale stamp.
      const std::uint32_t e = rng.below(8) == 0 ? epoch - 1 : epoch;
      const PNode* got = cache.lookup(off, e);
      const double* want = model.lookup(off, e);
      ASSERT_EQ(got == nullptr, want == nullptr) << "step " << step;
      if (got != nullptr) {
        ASSERT_EQ(got->data.vof, *want) << "step " << step;
      }
    } else if (op < 70) {
      ASSERT_EQ(cache.insert(off, node_with(vof), epoch),
                model.insert(off, vof, epoch))
          << "step " << step;
    } else if (op < 80) {
      cache.update(off, node_with(vof), epoch);
      model.update(off, vof, epoch);
    } else if (op < 93) {
      ASSERT_EQ(cache.invalidate(off), model.invalidate(off))
          << "step " << step;
    } else if (op < 97) {
      // Epoch bump, carrying live entries across it or not.
      if (rng.below(2) == 0) {
        ASSERT_EQ(cache.restamp(epoch, epoch + 1),
                  model.restamp(epoch, epoch + 1));
      }
      ++epoch;
    } else if (op < 98) {
      ASSERT_EQ(cache.clear(), model.clear());
    } else {
      // Sweep: which offsets does lookup return right now?
      for (const std::uint64_t probe : pool) {
        const PNode* got = cache.lookup(probe, epoch);
        const double* want = model.lookup(probe, epoch);
        ASSERT_EQ(got == nullptr, want == nullptr)
            << "step " << step << " offset " << probe;
        if (got != nullptr) {
          ASSERT_EQ(got->data.vof, *want);
        }
      }
    }
    ASSERT_EQ(cache.size(), model.size()) << "step " << step;
    ASSERT_EQ(cache.stats().hits, model.stats().hits);
    ASSERT_EQ(cache.stats().misses, model.stats().misses);
    ASSERT_EQ(cache.stats().evictions, model.stats().evictions);
    ASSERT_EQ(cache.stats().invalidations, model.stats().invalidations);
  }
  // The drive must actually have reached the interesting paths.
  EXPECT_GT(cache.stats().evictions, 1000u);
  EXPECT_GT(cache.stats().invalidations, 1000u);
  EXPECT_GT(cache.stats().hits, 1000u);
}

// ---------------------------------------------------------------------------
// Whole-tree coherence: cache on == cache off, bit for bit
// ---------------------------------------------------------------------------

nvbm::Config dev_cfg() {
  nvbm::Config c;
  c.latency_mode = nvbm::LatencyMode::kModeled;
  return c;
}

using LeafMap = std::map<std::uint64_t, double>;

LeafMap leaves_of(PmOctree& tree) {
  LeafMap out;
  tree.for_each_leaf([&](const LocCode& c, const CellData& d) {
    out[c.key() | (static_cast<std::uint64_t>(c.level()) << 60)] = d.vof;
  });
  return out;
}

/// Everything a run produces that must not depend on the cache knob.
struct Outcome {
  std::vector<LeafMap> checkpoints;
  std::vector<PersistStats> persists;
  PmStats final_stats;
  DramCounters dram;
  std::uint64_t nvbm_writes = 0;
  std::uint64_t nvbm_lines_written = 0;
  std::uint64_t nvbm_lines_read = 0;  ///< allowed to differ: cache shrinks it
  std::string wear;
  NodeCache::Stats cache;
};

Outcome run_interleaving(int seed, std::size_t cache_bytes) {
  Rng rng(static_cast<std::uint64_t>(seed) * 6151 + 3);
  nvbm::Device dev(64 << 20, dev_cfg());
  nvbm::Heap heap(dev);
  PmConfig pm;
  // Tight C0 budget: even the small random trees spill onto NVBM, so the
  // descent path exercises the cache on every seed (48 nodes lets some
  // seeds fit entirely in DRAM and never read the medium between
  // persists).
  pm.dram_budget_bytes = 8 * sizeof(PNode);
  pm.node_cache_bytes = cache_bytes;
  Outcome out;

  auto mutate = [&](PmOctree& tree, int steps) {
    for (int s = 0; s < steps; ++s) {
      std::vector<LocCode> leaves;
      tree.for_each_leaf(
          [&](const LocCode& c, const CellData&) { leaves.push_back(c); });
      const auto& victim =
          leaves[static_cast<std::size_t>(rng.below(leaves.size()))];
      const auto action = rng.below(4);
      if (action == 0 && victim.level() < 5) {
        tree.refine(victim);
      } else if (action == 1 && victim.level() > 0) {
        bool all_leaves = true;
        for (int i = 0; i < kChildrenPerNode && all_leaves; ++i) {
          const auto sib = victim.parent().child(i);
          all_leaves = tree.contains(sib) &&
                       tree.leaf_containing(sib.child(0)) == sib;
        }
        if (all_leaves) tree.coarsen(victim.parent());
      } else if (action == 2) {
        tree.update(victim, cell(rng.uniform()));
      } else {
        // Pure reads: the cache fast path.
        for (int q = 0; q < 8; ++q) {
          const auto& probe = leaves[static_cast<std::size_t>(
              rng.below(leaves.size()))];
          tree.sample(probe);
          tree.is_leaf(probe);
        }
      }
    }
  };

  {
    auto tree = PmOctree::create(heap, pm);
    tree.register_feature([](const LocCode&, const CellData& d) {
      return d.vof > 0.5;
    });
    tree.refine(LocCode::root());
    for (int round = 0; round < 4; ++round) {
      mutate(tree, 12);
      out.persists.push_back(tree.persist());  // also runs GC + transform
      out.checkpoints.push_back(leaves_of(tree));
      if (round == 2) tree.maybe_transform();
    }
    out.cache = tree.node_cache_stats();
    out.dram = tree.dram_counters();
  }

  // Reboot and keep going on the restored version: restore starts a fresh
  // tree object, so its cache must start cold and stay coherent.
  nvbm::Heap heap2(dev);
  auto back = PmOctree::restore(heap2, pm);
  out.checkpoints.push_back(leaves_of(back));
  mutate(back, 10);
  out.persists.push_back(back.persist());
  out.checkpoints.push_back(leaves_of(back));
  out.final_stats = back.stats();
  // Cache activity of the whole history = both tree generations.
  const auto bc = back.node_cache_stats();
  out.cache.hits += bc.hits;
  out.cache.misses += bc.misses;
  out.cache.evictions += bc.evictions;
  out.cache.invalidations += bc.invalidations;

  out.nvbm_writes = dev.counters().writes;
  out.nvbm_lines_written = dev.counters().lines_written;
  out.nvbm_lines_read = dev.counters().lines_read;
  out.wear = dev.wear_heatmap_json().dump();
  return out;
}

void expect_persist_eq(const PersistStats& a, const PersistStats& b) {
  EXPECT_EQ(a.nodes_total, b.nodes_total);
  EXPECT_EQ(a.nodes_shared, b.nodes_shared);
  EXPECT_EQ(a.merged_from_dram, b.merged_from_dram);
  EXPECT_EQ(a.gc_freed, b.gc_freed);
  EXPECT_EQ(a.delta_bytes, b.delta_bytes);
  EXPECT_EQ(a.overlap_ratio, b.overlap_ratio);
}

class CacheCoherence : public ::testing::TestWithParam<int> {};

TEST_P(CacheCoherence, RandomInterleavingMatchesCacheOffBitExactly) {
  const int seed = GetParam();
  const Outcome on = run_interleaving(seed, std::size_t{4} << 20);
  const Outcome off = run_interleaving(seed, 0);

  ASSERT_EQ(on.checkpoints.size(), off.checkpoints.size());
  for (std::size_t i = 0; i < on.checkpoints.size(); ++i) {
    EXPECT_EQ(on.checkpoints[i], off.checkpoints[i]) << "checkpoint " << i;
  }
  ASSERT_EQ(on.persists.size(), off.persists.size());
  for (std::size_t i = 0; i < on.persists.size(); ++i) {
    SCOPED_TRACE("persist " + std::to_string(i));
    expect_persist_eq(on.persists[i], off.persists[i]);
  }
  EXPECT_EQ(on.final_stats.nodes, off.final_stats.nodes);
  EXPECT_EQ(on.final_stats.leaves, off.final_stats.leaves);
  EXPECT_EQ(on.final_stats.dram_nodes, off.final_stats.dram_nodes);
  EXPECT_EQ(on.final_stats.nvbm_nodes_vi, off.final_stats.nvbm_nodes_vi);
  EXPECT_EQ(on.final_stats.unique_physical_nodes,
            off.final_stats.unique_physical_nodes);
  EXPECT_EQ(on.final_stats.depth, off.final_stats.depth);

  // DRAM-side counters and NVBM *write* traffic are cache-independent;
  // wear is a pure function of writes.
  EXPECT_EQ(on.dram.reads, off.dram.reads);
  EXPECT_EQ(on.dram.writes, off.dram.writes);
  EXPECT_EQ(on.dram.lines_read, off.dram.lines_read);
  EXPECT_EQ(on.dram.lines_written, off.dram.lines_written);
  EXPECT_EQ(on.nvbm_writes, off.nvbm_writes);
  EXPECT_EQ(on.nvbm_lines_written, off.nvbm_lines_written);
  EXPECT_EQ(on.wear, off.wear);

  // What the cache is FOR: strictly less medium read traffic.
  EXPECT_LT(on.nvbm_lines_read, off.nvbm_lines_read);
  EXPECT_GT(on.cache.hits, 0u);

  // Off = truly off: no cache activity.
  EXPECT_EQ(off.cache.hits, 0u);
  EXPECT_EQ(off.cache.misses, 0u);
  EXPECT_EQ(off.cache.evictions, 0u);
  EXPECT_EQ(off.cache.invalidations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheCoherence, ::testing::Range(0, 8));

TEST(CacheCoherence, TinyBudgetStillCoherent) {
  // A 2-slot cache thrashes constantly — eviction correctness under
  // pressure, same bit-identity bar.
  const Outcome tiny = run_interleaving(99, 2 * (sizeof(PNode) + 64));
  const Outcome off = run_interleaving(99, 0);
  ASSERT_EQ(tiny.checkpoints.size(), off.checkpoints.size());
  for (std::size_t i = 0; i < tiny.checkpoints.size(); ++i) {
    EXPECT_EQ(tiny.checkpoints[i], off.checkpoints[i]) << "checkpoint " << i;
  }
  EXPECT_EQ(tiny.nvbm_writes, off.nvbm_writes);
  EXPECT_EQ(tiny.wear, off.wear);
  EXPECT_GT(tiny.cache.evictions, 0u);
}

TEST(CacheCoherence, RepeatDescentsAreServedFromDram) {
  // All-NVBM tree: the second pass over the same probes must hit.
  nvbm::Device dev(64 << 20, dev_cfg());
  nvbm::Heap heap(dev);
  PmConfig pm;
  pm.dram_budget_bytes = 0;
  auto tree = PmOctree::create(heap, pm);
  for (int l = 0; l < 3; ++l)
    tree.refine_where([](const LocCode&, const CellData&) { return true; });

  // Building the tree had to touch the medium at least once per node.
  EXPECT_GT(dev.counters().lines_read, 0u);

  // This traversal warms the cache (the whole tree fits the 4 MiB
  // default budget) ...
  std::vector<LocCode> probes;
  tree.for_each_leaf(
      [&](const LocCode& c, const CellData&) { probes.push_back(c); });

  // ... so from here on, descents must never reach the medium again.
  const auto hits_before = tree.node_cache_stats().hits;
  const auto lines_before_hot = dev.counters().lines_read;
  for (const auto& p : probes) tree.sample(p);
  const auto hot_lines = dev.counters().lines_read - lines_before_hot;

  EXPECT_GT(tree.node_cache_stats().hits, hits_before);
  EXPECT_EQ(hot_lines, 0u) << "fully cached re-descent still hit the medium";
  // The modeled time of the hot pass is charged at DRAM latency.
  EXPECT_GT(dev.counters().cached_reads, 0u);
  EXPECT_GT(dev.counters().modeled_cached_ns, 0u);
}

TEST(CacheCoherence, PersistEpochBumpKeepsCacheWarm) {
  // Hit-rate regression guard for the epoch-bump re-stamp: the cache is
  // write-through and frees invalidate their offsets eagerly, so every
  // entry is still byte-correct when persist seals the epoch. persist()
  // re-stamps the population to the new epoch in one pass instead of
  // letting the validation stamp expire it wholesale — a steady-state
  // workload must not re-miss its entire working set after every persist.
  nvbm::Device dev(64 << 20, dev_cfg());
  nvbm::Heap heap(dev);
  PmConfig pm;
  pm.dram_budget_bytes = 0;
  auto tree = PmOctree::create(heap, pm);
  for (int l = 0; l < 2; ++l)
    tree.refine_where([](const LocCode&, const CellData&) { return true; });
  tree.leaf_count();  // warm the cache
  const auto inv_before = tree.node_cache_stats().invalidations;
  tree.persist();
  // persist does not walk the cache entry-by-entry: the re-stamp is a
  // bulk carry-over, not per-entry invalidation.
  EXPECT_EQ(tree.node_cache_stats().invalidations, inv_before);
  const auto hits_before = tree.node_cache_stats().hits;
  const auto misses_before = tree.node_cache_stats().misses;
  const auto lines_before = dev.counters().lines_read;
  tree.leaf_count();
  // The first traversal of the new epoch runs entirely out of the carried
  // cache: all hits, zero new misses, zero medium reads.
  EXPECT_EQ(tree.node_cache_stats().misses, misses_before);
  EXPECT_GT(tree.node_cache_stats().hits, hits_before);
  EXPECT_EQ(dev.counters().lines_read, lines_before)
      << "post-persist re-descent fell through to the medium";
}

}  // namespace
}  // namespace pmo::pmoctree
