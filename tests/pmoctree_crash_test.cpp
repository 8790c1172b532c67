// Randomized crash-injection property tests.
//
// The paper's central durability claim (§1, §3): PM-octree needs no
// ordering fences on octant writes because at least one version of the
// octree is consistent at all times; only the 8-byte root swap is
// ordering-critical, and that one is flushed. These tests crash the
// emulated NVBM at adversarial points — dropping a random subset of
// unflushed cache lines — and verify that restore always yields exactly
// the last successfully persisted state.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "pmoctree/pm_octree.hpp"

namespace pmo::pmoctree {
namespace {

nvbm::Config crash_cfg() {
  nvbm::Config c;
  c.latency_mode = nvbm::LatencyMode::kNone;
  c.crash_sim = true;
  return c;
}

CellData cell(double vof) {
  CellData d;
  d.vof = vof;
  return d;
}

using LeafMap = std::map<std::uint64_t, double>;

LeafMap leaves_of(PmOctree& tree) {
  LeafMap out;
  tree.for_each_leaf([&](const LocCode& c, const CellData& d) {
    out[c.key() | (static_cast<std::uint64_t>(c.level()) << 60)] = d.vof;
  });
  return out;
}

/// Applies `steps` random mutations to the tree.
void mutate_randomly(PmOctree& tree, Rng& rng, int steps) {
  for (int s = 0; s < steps; ++s) {
    std::vector<LocCode> leaves;
    tree.for_each_leaf(
        [&](const LocCode& c, const CellData&) { leaves.push_back(c); });
    const auto& victim =
        leaves[static_cast<std::size_t>(rng.below(leaves.size()))];
    const auto action = rng.below(3);
    if (action == 0 && victim.level() < 6) {
      tree.refine(victim);
    } else if (action == 1 && victim.level() > 0) {
      // Coarsen the victim's parent when all its children are leaves.
      bool all_leaves = true;
      for (int i = 0; i < kChildrenPerNode && all_leaves; ++i) {
        const auto sib = victim.parent().child(i);
        all_leaves = tree.contains(sib) &&
                     tree.leaf_containing(sib.child(0)) == sib;
      }
      if (all_leaves) tree.coarsen(victim.parent());
    } else {
      tree.update(victim, cell(rng.uniform()));
    }
  }
}

class CrashInjection : public ::testing::TestWithParam<int> {};

TEST_P(CrashInjection, RestoreAlwaysYieldsLastPersistedVersion) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);

  nvbm::Device dev(64 << 20, crash_cfg());
  nvbm::Heap heap(dev);
  PmConfig pm;
  pm.dram_budget_bytes = 16 * sizeof(PNode);  // force heavy NVBM traffic

  LeafMap persisted;
  {
    auto tree = PmOctree::create(heap, pm);
    tree.refine(LocCode::root());
    mutate_randomly(tree, rng, 20);
    tree.persist();
    persisted = leaves_of(tree);

    // Now mutate again — and crash mid-flight, with every unflushed cache
    // line surviving or dying independently at random.
    mutate_randomly(tree, rng, 15);
  }
  const auto survive_p = rng.uniform();
  dev.simulate_crash(rng, survive_p);

  // Reboot: re-attach the heap and restore.
  nvbm::Heap heap2(dev);
  ASSERT_TRUE(PmOctree::can_restore(heap2));
  auto back = PmOctree::restore(heap2, pm);
  EXPECT_EQ(leaves_of(back), persisted)
      << "seed " << seed << " survive_p " << survive_p;
}

/// Persists once, mutates, then dies inside the next persist: after the
/// merge has written its fresh twins and relinks, before flush_all() and
/// the root swap. Restore must yield exactly the first persisted version.
void crash_during_merge(int seed, std::size_t dram_budget_bytes) {
  Rng rng(static_cast<std::uint64_t>(seed) * 104729 + 7);

  nvbm::Device dev(64 << 20, crash_cfg());
  nvbm::Heap heap(dev);
  PmConfig pm;
  pm.dram_budget_bytes = dram_budget_bytes;

  LeafMap persisted;
  {
    auto tree = PmOctree::create(heap, pm);
    tree.refine(LocCode::root());
    mutate_randomly(tree, rng, 10);
    tree.persist();
    persisted = leaves_of(tree);
    mutate_randomly(tree, rng, 10);
    tree.set_crash_for_test(CrashPoint::kBeforeFlush);
    tree.persist();
  }
  dev.simulate_crash(rng, rng.uniform());

  nvbm::Heap heap2(dev);
  auto back = PmOctree::restore(heap2, pm);
  EXPECT_EQ(leaves_of(back), persisted) << "seed " << seed;
}

TEST_P(CrashInjection, CrashDuringMergeKeepsOldVersion) {
  // Default C0: the whole tree is DRAM-resident, so the dying merge
  // strands fresh DRAM twins in the write buffer.
  crash_during_merge(GetParam(), PmConfig{}.dram_budget_bytes);
}

TEST_P(CrashInjection, CrashDuringAllNvbmMergeKeepsOldVersion) {
  // No C0: the mutations wrote their CoW copies straight to NVBM and the
  // merge writes no twins, so what the crash may tear is the unflushed
  // private NVBM octants the dying persist was about to seal.
  crash_during_merge(GetParam(), 0);
}

/// Dies inside persist() between the durable epoch store and the root
/// swap, restores, updates a leaf, loses power with every line surviving
/// and restores again. The epoch is stored first, so the first restore
/// sees a newer epoch over the older root and copies the leaf on write:
/// the second restore still reads the persisted 0.5. Were the root
/// stored first, the restored root's octants would carry the restored
/// epoch, the update would land in place and 0.9 would survive.
TEST(RootSwapCrash, UpdateAfterTornRootTableKeepsThePersistedLeaf) {
  nvbm::Device dev(64 << 20, crash_cfg());
  PmConfig pm;
  pm.dram_budget_bytes = 0;  // every octant, and every copy, on NVBM
  const LocCode leaf = LocCode::root().child(3);
  {
    nvbm::Heap heap(dev);
    auto tree = PmOctree::create(heap, pm);
    tree.refine(LocCode::root());
    tree.update(leaf, cell(0.5));
    tree.persist();
    tree.update(leaf, cell(0.5));  // a fresh copy, stamped with epoch 2
    tree.set_crash_for_test(CrashPoint::kBeforeRootSwap);
    tree.persist();
  }
  Rng rng(7);
  dev.simulate_crash(rng, 1.0);
  {
    nvbm::Heap heap(dev);
    auto tree = PmOctree::restore(heap, pm);
    ASSERT_DOUBLE_EQ(tree.find(leaf)->vof, 0.5);
    tree.update(leaf, cell(0.9));  // never persisted
  }
  dev.simulate_crash(rng, 1.0);
  nvbm::Heap heap(dev);
  auto back = PmOctree::restore(heap, pm);
  EXPECT_DOUBLE_EQ(back.find(leaf)->vof, 0.5);
}

TEST_P(CrashInjection, RecoveryGcReclaimsOrphans) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) + 31);

  nvbm::Device dev(64 << 20, crash_cfg());
  nvbm::Heap heap(dev);
  PmConfig pm;
  pm.dram_budget_bytes = 0;  // all octants on NVBM

  {
    auto tree = PmOctree::create(heap, pm);
    tree.refine(LocCode::root());
    tree.persist();
    mutate_randomly(tree, rng, 12);  // creates orphan NVBM objects
  }
  dev.simulate_crash(rng, 1.0);  // even if all lines survive...

  nvbm::Heap heap2(dev);
  auto back = PmOctree::restore(heap2, pm);
  const auto reachable = back.node_count();
  back.gc();  // ...recovery GC reclaims all non-reachable octants
  EXPECT_EQ(heap2.stats().live_objects, reachable);
  // And the tree still reads consistently afterwards.
  EXPECT_EQ(back.node_count(), reachable);
}

TEST_P(CrashInjection, HotNodeCacheNeverChangesWhatACrashLoses) {
  // The hot-node cache is read-path only: the device's dirty-line set —
  // and therefore exactly which data a crash can lose — must be identical
  // with the cache on and off. Run the same RNG-driven history twice and
  // compare both the persisted state and the restored state.
  const int seed = GetParam();
  auto run = [&](std::size_t cache_bytes) {
    Rng rng(static_cast<std::uint64_t>(seed) * 24593 + 17);
    nvbm::Device dev(64 << 20, crash_cfg());
    nvbm::Heap heap(dev);
    PmConfig pm;
    pm.dram_budget_bytes = 16 * sizeof(PNode);
    pm.node_cache_bytes = cache_bytes;
    LeafMap persisted;
    {
      auto tree = PmOctree::create(heap, pm);
      tree.refine(LocCode::root());
      mutate_randomly(tree, rng, 18);
      tree.persist();
      persisted = leaves_of(tree);
      mutate_randomly(tree, rng, 12);
    }
    // Same seed -> same writes -> same dirty lines -> the crash consumes
    // the RNG stream identically in both runs.
    dev.simulate_crash(rng, 0.4);
    nvbm::Heap heap2(dev);
    auto back = PmOctree::restore(heap2, pm);
    return std::make_pair(persisted, leaves_of(back));
  };
  const auto on = run(std::size_t{4} << 20);
  const auto off = run(0);
  EXPECT_EQ(on.first, off.first) << "seed " << seed;
  EXPECT_EQ(on.second, off.second) << "seed " << seed;
  EXPECT_EQ(on.second, on.first) << "seed " << seed;
}

TEST_P(CrashInjection, ParallelMergeKeepsCrashConsistency) {
  // A merge under a tiny C0 splits private NVBM parents into DRAM working
  // copies plus fresh twins, frees the originals and reuses freed offsets
  // for later twins — all before the root swap. None of that may leak
  // into the durable version: crash with in-flight mutations after two
  // persists and verify restore yields exactly the last persisted tree.
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 50021 + 3);

  nvbm::Device dev(64 << 20, crash_cfg());
  nvbm::Heap heap(dev);
  PmConfig pm;
  pm.dram_budget_bytes = 64 * sizeof(PNode);

  LeafMap persisted;
  {
    auto tree = PmOctree::create(heap, pm);
    // Deep uniform start under a 64-node C0: most of the tree is NVBM,
    // so the merge splits private NVBM parents above DRAM children.
    for (int i = 0; i < 3; ++i) {
      tree.refine_where([](const LocCode&, const CellData&) { return true; });
    }
    mutate_randomly(tree, rng, 15);
    tree.persist();  // full merge
    mutate_randomly(tree, rng, 12);
    tree.persist();  // incremental merge (pruning active)
    persisted = leaves_of(tree);
    mutate_randomly(tree, rng, 12);  // in-flight work the crash may eat
  }
  const auto survive_p = rng.uniform();
  dev.simulate_crash(rng, survive_p);

  nvbm::Heap heap2(dev);
  ASSERT_TRUE(PmOctree::can_restore(heap2));
  auto back = PmOctree::restore(heap2, pm);
  EXPECT_EQ(leaves_of(back), persisted)
      << "seed " << seed << " survive_p " << survive_p;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashInjection, ::testing::Range(0, 12));

TEST(CrashInjection, MultiStepCrashRecoverCrashAgain) {
  Rng rng(555);
  nvbm::Device dev(64 << 20, crash_cfg());
  PmConfig pm;
  pm.dram_budget_bytes = 32 * sizeof(PNode);

  LeafMap persisted;
  {
    nvbm::Heap heap(dev);
    auto tree = PmOctree::create(heap, pm);
    tree.refine(LocCode::root());
    tree.persist();
    persisted = leaves_of(tree);
    mutate_randomly(tree, rng, 8);
    dev.simulate_crash(rng, 0.3);
  }
  for (int round = 0; round < 4; ++round) {
    nvbm::Heap heap(dev);
    auto tree = PmOctree::restore(heap, pm);
    EXPECT_EQ(leaves_of(tree), persisted) << "round " << round;
    mutate_randomly(tree, rng, 8);
    if (round % 2 == 0) {
      tree.persist();
      persisted = leaves_of(tree);
      mutate_randomly(tree, rng, 4);
    }
    dev.simulate_crash(rng, rng.uniform());
  }
}

TEST(CrashInjection, NothingPersistedMeansNothingRestorable) {
  Rng rng(9);
  nvbm::Device dev(16 << 20, crash_cfg());
  {
    nvbm::Heap heap(dev);
    auto tree = PmOctree::create(heap, PmConfig{});
    tree.refine(LocCode::root());
    // no persist()
  }
  dev.simulate_crash(rng, 0.5);
  nvbm::Heap heap(dev);
  EXPECT_FALSE(PmOctree::can_restore(heap));
}

}  // namespace
}  // namespace pmo::pmoctree
