// Versioning and persistence semantics: copy-on-write isolation between
// V_{i-1} and V_i, overlap accounting, reclamation, restore.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "pmoctree/pm_octree.hpp"

namespace pmo::pmoctree {
namespace {

nvbm::Config dev_cfg() {
  nvbm::Config c;
  c.latency_mode = nvbm::LatencyMode::kModeled;
  return c;
}

struct Fixture {
  explicit Fixture(PmConfig pm = PmConfig{}, std::size_t cap = 128 << 20)
      : device(cap, dev_cfg()), heap(device), config(pm) {}
  nvbm::Device device;
  nvbm::Heap heap;
  PmConfig config;
};

CellData cell(double vof, double tracer = 0.0) {
  CellData d;
  d.vof = vof;
  d.tracer = tracer;
  return d;
}

std::map<std::uint64_t, double> snapshot_prev(PmOctree& tree) {
  std::map<std::uint64_t, double> out;
  tree.for_each_leaf_prev([&](const LocCode& c, const CellData& d) {
    out[c.key() | (static_cast<std::uint64_t>(c.level()) << 60)] = d.vof;
  });
  return out;
}

std::map<std::uint64_t, double> snapshot_cur(PmOctree& tree) {
  std::map<std::uint64_t, double> out;
  tree.for_each_leaf([&](const LocCode& c, const CellData& d) {
    out[c.key() | (static_cast<std::uint64_t>(c.level()) << 60)] = d.vof;
  });
  return out;
}

TEST(Persist, FirstPersistCreatesPreviousVersion) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.insert(LocCode::from_grid(2, 1, 1, 1), cell(0.5));
  EXPECT_FALSE(tree.has_prev_version());
  const auto stats = tree.persist();
  EXPECT_TRUE(tree.has_prev_version());
  EXPECT_EQ(stats.nodes_shared, 0u);  // nothing could be shared yet
  EXPECT_GT(stats.nodes_total, 0u);
  // The persisted version lives entirely in NVBM; the working version may
  // keep its hot octants in DRAM (the C0 tree is sticky across persists).
  EXPECT_TRUE(tree.previous_root().in_nvbm());
  std::size_t prev_leaves = 0;
  tree.for_each_leaf_prev(
      [&](const LocCode&, const CellData&) { ++prev_leaves; });
  EXPECT_EQ(prev_leaves, tree.leaf_count());
}

TEST(Persist, MergeWritesDurableTwinsForDramNodes) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.insert(LocCode::from_grid(3, 2, 4, 6), cell(0.9));
  const auto dram_before = tree.stats().dram_nodes;
  EXPECT_GT(dram_before, 0u);
  const auto stats = tree.persist();
  // Every DRAM octant got an NVBM twin...
  EXPECT_EQ(stats.merged_from_dram, dram_before);
  // ...while the working copies stayed resident in DRAM (sticky C0).
  const auto s = tree.stats();
  EXPECT_EQ(s.dram_nodes, dram_before);
  // The persisted version is fully NVBM: restoring sees every octant.
  auto back = PmOctree::restore(fx.heap, fx.config);
  EXPECT_EQ(back.node_count(), s.nodes);
}

TEST(Persist, PreviousVersionImmuneToNewMutations) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  const auto code = LocCode::from_grid(2, 1, 2, 3);
  tree.insert(code, cell(0.25));
  tree.persist();
  const auto before = snapshot_prev(tree);

  // Mutate V_i heavily: update, refine elsewhere, remove a subtree.
  tree.update(code, cell(0.99));
  tree.refine(LocCode::from_grid(1, 0, 0, 0));
  tree.coarsen(code.parent());

  EXPECT_EQ(snapshot_prev(tree), before);  // V_{i-1} is untouched
  EXPECT_NE(snapshot_cur(tree), before);
}

TEST(Persist, UpdateOfSharedOctantIsCopyOnWrite) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  const auto code = LocCode::from_grid(1, 1, 1, 1);
  tree.insert(code, cell(0.4));
  tree.persist();
  tree.update(code, cell(0.8));
  // Both versions observable with their own values.
  double prev_val = -1.0;
  tree.for_each_leaf_prev([&](const LocCode& c, const CellData& d) {
    if (c == code) prev_val = d.vof;
  });
  EXPECT_DOUBLE_EQ(prev_val, 0.4);
  EXPECT_DOUBLE_EQ(tree.find(code)->vof, 0.8);
}

TEST(Persist, InPlaceUpdateForPrivateNodes) {
  // A node created after the last persist is private: updating it twice
  // must not allocate more NVBM objects.
  PmConfig pm;
  pm.dram_budget_bytes = 0;  // all NVBM, the interesting tier
  Fixture fx(pm);
  auto tree = PmOctree::create(fx.heap, pm);
  const auto code = LocCode::from_grid(2, 3, 2, 1);
  tree.insert(code, cell(0.1));
  const auto live_before = fx.heap.stats().live_objects;
  tree.update(code, cell(0.2));
  tree.update(code, cell(0.3));
  EXPECT_EQ(fx.heap.stats().live_objects, live_before);
  EXPECT_DOUBLE_EQ(tree.find(code)->vof, 0.3);
}

TEST(Persist, OverlapRatioReflectsSharing) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  for (int i = 0; i < 8; ++i)
    tree.insert(LocCode::root().child(i), cell(0.1 * i));
  tree.persist();
  // Touch exactly one leaf; everything else stays shared.
  tree.update(LocCode::root().child(0), cell(0.77));
  const auto stats = tree.persist();
  // 9 octants in V_i; the update copied child 0 and (by path copying) the
  // root, so 7 remain shared.
  EXPECT_EQ(stats.nodes_total, 9u);
  EXPECT_EQ(stats.nodes_shared, 7u);
  EXPECT_NEAR(stats.overlap_ratio, 7.0 / 9.0, 1e-12);
}

TEST(Persist, NoChangePersistIsNearlyFree) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.insert(LocCode::from_grid(2, 2, 2, 2), cell(0.5));
  tree.persist();
  const auto stats = tree.persist();  // nothing changed in between
  EXPECT_DOUBLE_EQ(stats.overlap_ratio, 1.0);
  EXPECT_EQ(stats.merged_from_dram, 0u);
  EXPECT_EQ(stats.delta_bytes, 0u);
}

TEST(Persist, SharedOctantsStoredOnce) {
  // Fig. 3's memory claim: two versions overlapping at ratio r cost far
  // less than two full copies. Run NVBM-only so version sharing is the
  // only storage mechanism in play.
  PmConfig pm;
  pm.dram_budget_bytes = 0;
  Fixture fx(pm);
  auto tree = PmOctree::create(fx.heap, pm);
  for (int i = 0; i < 8; ++i)
    tree.insert(LocCode::root().child(i).child(i), cell(0.1));
  tree.persist();
  const auto nodes = tree.node_count();
  tree.update(LocCode::root().child(0).child(0), cell(0.5));
  const auto s = tree.stats();
  // Unique physical nodes = V_i nodes + only the CoW'd path of V_{i-1}
  // (here: old root, old child0, old grandchild).
  EXPECT_EQ(s.nodes, nodes);
  EXPECT_EQ(s.unique_physical_nodes, nodes + 3);
}

TEST(Persist, PersistReclaimsSupersededVersion) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.insert(LocCode::from_grid(2, 0, 1, 0), cell(0.5));
  tree.persist();
  tree.update(LocCode::from_grid(2, 0, 1, 0), cell(0.6));
  const auto stats = tree.persist();  // supersedes the old version
  // The persist freed the replaced twins from the retire list, and the
  // full collector finds nothing it missed.
  EXPECT_GT(stats.gc_freed, 0u);
  EXPECT_EQ(tree.gc(), 0u);
  // All remaining objects are exactly the reachable set.
  EXPECT_EQ(fx.heap.stats().live_objects, tree.node_count());
}

TEST(Persist, AutoGcOnPersistKeepsHeapTight) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.insert(LocCode::from_grid(2, 1, 1, 0), cell(0.2));
  for (int step = 0; step < 10; ++step) {
    tree.update(LocCode::from_grid(2, 1, 1, 0),
                cell(0.2 + 0.05 * step));
    tree.persist();
  }
  // Two-version bound: live objects can never exceed 2x the tree size.
  EXPECT_LE(fx.heap.stats().live_objects, 2 * tree.node_count());
}

TEST(Persist, RestoreReturnsLastPersistedState) {
  Fixture fx;
  {
    auto tree = PmOctree::create(fx.heap, fx.config);
    tree.insert(LocCode::from_grid(2, 3, 1, 2), cell(0.42, 7.0));
    tree.persist();
    // Post-persist mutations that are NOT persisted:
    tree.update(LocCode::from_grid(2, 3, 1, 2), cell(0.99));
    tree.refine(LocCode::from_grid(1, 0, 0, 0));
  }  // "process exits" without persisting

  auto back = PmOctree::restore(fx.heap, fx.config);
  const auto v = back.find(LocCode::from_grid(2, 3, 1, 2));
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(v->vof, 0.42);
  EXPECT_DOUBLE_EQ(v->tracer, 7.0);
  // The unpersisted refinement of (1;0,0,0) is gone after restore.
  EXPECT_FALSE(back.contains(LocCode::from_grid(2, 0, 0, 0)));
}

TEST(Persist, RestoreIsO1InNodeReads) {
  Fixture fx;
  {
    auto tree = PmOctree::create(fx.heap, fx.config);
    for (int l = 0; l < 3; ++l)
      tree.refine_where(
          [](const LocCode&, const CellData&) { return true; });
    tree.persist();
  }
  fx.device.reset_counters();
  auto back = PmOctree::restore(fx.heap, fx.config);
  // Restoring must not traverse the tree: near-instantaneous recovery.
  EXPECT_LT(fx.device.counters().reads, 10u);
  EXPECT_TRUE(back.has_prev_version());
}

TEST(Persist, RestoreThenMutateCopiesOnWrite) {
  Fixture fx;
  {
    auto tree = PmOctree::create(fx.heap, fx.config);
    tree.insert(LocCode::from_grid(1, 1, 0, 0), cell(0.3));
    tree.persist();
  }
  auto back = PmOctree::restore(fx.heap, fx.config);
  back.update(LocCode::from_grid(1, 1, 0, 0), cell(0.6));
  double prev = -1;
  back.for_each_leaf_prev([&](const LocCode& c, const CellData& d) {
    if (c == LocCode::from_grid(1, 1, 0, 0)) prev = d.vof;
  });
  EXPECT_DOUBLE_EQ(prev, 0.3);
  EXPECT_DOUBLE_EQ(back.find(LocCode::from_grid(1, 1, 0, 0))->vof, 0.6);
}

TEST(Persist, RepeatedPersistRestoreCycles) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.insert(LocCode::from_grid(2, 2, 0, 2), cell(0.0));
  for (int step = 1; step <= 5; ++step) {
    tree.update(LocCode::from_grid(2, 2, 0, 2),
                cell(static_cast<double>(step)));
    tree.persist();
    auto probe = PmOctree::restore(fx.heap, fx.config);
    EXPECT_DOUBLE_EQ(probe.find(LocCode::from_grid(2, 2, 0, 2))->vof,
                     static_cast<double>(step));
  }
}

TEST(Persist, DeltaBytesTracksChangedNodes) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  for (int i = 0; i < 8; ++i)
    tree.insert(LocCode::root().child(i), cell(0.0));
  tree.persist();
  tree.update(LocCode::root().child(3), cell(0.5));
  const auto stats = tree.persist();
  // Changed: child 3 and root (path copy) => 2 nodes.
  EXPECT_EQ(stats.delta_bytes, 2 * sizeof(PNode));
}

// ---------------------------------------------------------------------------
// Reclamation: persist frees from the retire list; the full gc() is the
// oracle. After a persist with no pin live, gc() must find nothing left.
// ---------------------------------------------------------------------------

/// NVBM objects reachable from V_i and the working tree.
std::uint64_t reachable_objects(PmOctree& tree) {
  return tree.stats().nvbm_live_bytes / sizeof(PNode);
}

std::map<std::uint64_t, double> snapshot_pinned(PmOctree& tree,
                                                const SnapshotHandle& snap) {
  std::map<std::uint64_t, double> out;
  tree.for_each_leaf_snapshot(snap, [&](const LocCode& c, const CellData& d) {
    out[c.key() | (static_cast<std::uint64_t>(c.level()) << 60)] = d.vof;
  });
  return out;
}

/// The 128 bytes of every octant the pinned version reaches, keyed by
/// offset and read raw from the device: uncharged, and past the node
/// cache, so a write anywhere into the pinned bytes shows.
using NodeImages =
    std::map<std::uint64_t, std::array<std::byte, sizeof(PNode)>>;

NodeImages pinned_images(const SnapshotHandle& snap) {
  NodeImages out;
  std::vector<std::uint64_t> stack{snap.root_offset()};
  while (!stack.empty()) {
    const std::uint64_t off = stack.back();
    stack.pop_back();
    const auto [it, fresh] = out.try_emplace(off);
    if (!fresh) continue;
    std::memcpy(it->second.data(), snap.device().raw(off, sizeof(PNode)),
                sizeof(PNode));
    const PNode node = load_node(it->second.data());
    for (int i = 0; i < kChildrenPerNode; ++i) {
      if (node.has_child(i)) stack.push_back(node.child_ref(i).nvbm_offset());
    }
  }
  return out;
}

/// One random refine / coarsen / update / remove. Refines go through
/// refine_where so the C0 budget is enforced (evictions) afterwards.
void mutate_once(PmOctree& tree, Rng& rng) {
  std::vector<LocCode> leaves;
  tree.for_each_leaf(
      [&](const LocCode& c, const CellData&) { leaves.push_back(c); });
  const LocCode victim =
      leaves[static_cast<std::size_t>(rng.below(leaves.size()))];
  switch (rng.below(4)) {
    case 0:
      if (victim.level() < 4) {
        tree.refine_where(
            [&](const LocCode& c, const CellData&) { return c == victim; },
            [&](const LocCode&, CellData& d) { d.vof = rng.uniform(); });
      }
      break;
    case 1:
      if (victim.level() > 0) {
        bool all_leaves = true;
        for (int i = 0; i < kChildrenPerNode; ++i)
          all_leaves &= tree.is_leaf(victim.parent().child(i));
        if (all_leaves) tree.coarsen(victim.parent());
      }
      break;
    case 2:
      tree.update(victim, cell(rng.uniform()));
      break;
    default:
      // Removing the parent drops a whole (often shared) subtree.
      if (victim.level() > 1) tree.remove(victim.parent());
      break;
  }
}

class RetireList : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RetireList, PersistFreesExactlyWhatGcWould) {
  std::size_t held_by_pins = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 7907 + GetParam());
    PmConfig pm;
    pm.dram_budget_bytes = GetParam();
    pm.enable_transform = true;
    Fixture fx(pm);
    auto tree = PmOctree::create(fx.heap, pm);
    // Hot cells drive the layout transformation at every persist.
    tree.register_feature(
        [](const LocCode&, const CellData& d) { return d.vof > 0.5; });
    tree.refine_where([](const LocCode& c, const CellData&) {
      return c.level() < 2;
    });
    tree.persist();

    struct Pin {
      SnapshotHandle snap;
      std::map<std::uint64_t, double> leaves;
      NodeImages images;
    };
    std::vector<Pin> pins;
    for (int round = 0; round < 32; ++round) {
      for (int op = 0; op < 8; ++op) mutate_once(tree, rng);
      if (rng.below(3) == 0) {
        auto snap = tree.pin_snapshot();
        auto leaves = snapshot_pinned(tree, snap);
        auto images = pinned_images(snap);
        pins.push_back(
            {std::move(snap), std::move(leaves), std::move(images)});
      }
      if (!pins.empty() && rng.below(3) == 0) {
        pins.erase(pins.begin() +
                   static_cast<std::ptrdiff_t>(rng.below(pins.size())));
      }
      tree.persist();
      // No write path may touch a pinned byte: serve::Reader copies
      // these bytes concurrently with the mutator.
      for (const auto& [snap, leaves, images] : pins) {
        ASSERT_EQ(snapshot_pinned(tree, snap), leaves)
            << "seed " << seed << " round " << round << " epoch "
            << snap.epoch();
        ASSERT_TRUE(pinned_images(snap) == images)
            << "a pinned octant's bytes changed; seed " << seed << " round "
            << round << " epoch " << snap.epoch();
      }
      if (pins.empty()) {
        ASSERT_EQ(fx.heap.stats().live_objects, reachable_objects(tree))
            << "seed " << seed << " round " << round;
        ASSERT_EQ(tree.gc(), 0u) << "seed " << seed << " round " << round;
      }
    }
    held_by_pins =
        std::max(held_by_pins, tree.deferred_reclaim_high_water());
    pins.clear();
    tree.persist();
    EXPECT_EQ(tree.deferred_reclaim_nodes(), 0u);
    EXPECT_EQ(tree.gc(), 0u) << "seed " << seed;
    EXPECT_EQ(fx.heap.stats().live_objects, reachable_objects(tree));
  }
  EXPECT_GT(held_by_pins, 0u) << "no pin ever held a retired octant back";
}

INSTANTIATE_TEST_SUITE_P(Budgets, RetireList,
                         ::testing::Values(std::size_t{0},
                                           16 * sizeof(PNode),
                                           PmConfig{}.dram_budget_bytes));

TEST(RetireList, StaleEpochEvictionCopyIsReclaimed) {
  // Evicting a clean DRAM octant whose children changed allocates a new
  // NVBM copy that keeps the octant's old epoch. The copy was never part
  // of a sealed version, yet it looks shared: a later copy-on-write
  // through it must retire it, or it leaks.
  PmConfig pm;
  pm.dram_budget_bytes = 17 * sizeof(PNode);
  pm.threshold_dram = 2.0;  // new octants may fill C0 to twice the budget
  Fixture fx(pm);
  auto tree = PmOctree::create(fx.heap, pm);
  const LocCode c0 = LocCode::root().child(0);
  tree.refine(LocCode::root());
  tree.refine(c0);  // 17 DRAM octants: exactly the budget
  tree.persist();   // every octant gets a durable twin

  tree.update(c0.child(1), cell(0.5));  // c0 stays clean, a child changes
  tree.refine(LocCode::root().child(1));  // 25 DRAM octants: over budget
  for (int i = 1; i < kChildrenPerNode; ++i) {
    for (int k = 0; k < 32; ++k) tree.find(LocCode::root().child(i));
  }
  // Enforce the budget: c0's subtree is the coldest and is evicted.
  tree.refine_where([](const LocCode&, const CellData&) { return false; });

  ASSERT_TRUE(tree.current_root().in_dram());
  const NodeRef copy = tree.current_root().dram_ptr()->child_ref(0);
  ASSERT_TRUE(copy.in_nvbm()) << "c0 was not evicted";
  PNode node;
  std::memcpy(&node, fx.device.raw(copy.nvbm_offset(), sizeof(PNode)),
              sizeof(PNode));
  PNode sealed;
  std::memcpy(&sealed,
              fx.device.raw(tree.previous_root().nvbm_offset(), sizeof(PNode)),
              sizeof(PNode));
  ASSERT_NE(sealed.child_ref(0), copy) << "no new eviction copy";
  ASSERT_LT(node.epoch, tree.epoch()) << "eviction copy has a fresh epoch";

  tree.update(c0.child(2), cell(0.75));  // CoW through the copy
  tree.persist();
  EXPECT_EQ(tree.gc(), 0u);
  EXPECT_EQ(fx.heap.stats().live_objects, reachable_objects(tree));
}

TEST(RetireList, PinHoldsOnlyWhatItsVersionReaches) {
  // A pin on V_1 that outlives two persists keeps V_1's superseded
  // octants, but not those only V_2 had.
  Fixture fx;  // default C0: every octant is DRAM with a durable twin
  auto tree = PmOctree::create(fx.heap, fx.config);
  const LocCode leaf = LocCode::root().child(0);
  tree.refine(LocCode::root());
  tree.persist();
  auto snap = tree.pin_snapshot();
  tree.update(leaf, cell(0.25));
  tree.persist();  // retires V_1's twins of the leaf and the root
  EXPECT_EQ(tree.deferred_reclaim_nodes(), 2u);
  tree.update(leaf, cell(0.5));
  const auto stats = tree.persist();  // V_2's twins: no pin reaches them
  EXPECT_EQ(stats.gc_freed, 2u);
  EXPECT_EQ(tree.deferred_reclaim_nodes(), 2u);
  EXPECT_EQ(fx.heap.stats().live_objects, reachable_objects(tree) + 2);
  // A full collection under the pin frees nothing and keeps the two
  // pinned entries listed for the persist after the release.
  EXPECT_EQ(tree.gc(), 0u);
  EXPECT_EQ(tree.deferred_reclaim_nodes(), 2u);
  snap.release();
  EXPECT_EQ(tree.persist().gc_freed, 2u);
  EXPECT_EQ(tree.gc(), 0u);
}

TEST(RetireList, FirstPersistAfterRestoreReclaimsStrandedObjects) {
  PmConfig pm;
  pm.dram_budget_bytes = 0;  // every mutation allocates on NVBM
  Fixture fx(pm);
  {
    auto tree = PmOctree::create(fx.heap, pm);
    tree.refine(LocCode::root());
    tree.persist();
    tree.refine(LocCode::root().child(3));  // lost with the working tree
    tree.update(LocCode::root().child(5), cell(0.5));
  }
  auto back = PmOctree::restore(fx.heap, pm);
  back.update(LocCode::root().child(1), cell(0.25));
  const auto stats = back.persist();
  EXPECT_GT(stats.gc_freed, 0u);
  EXPECT_EQ(fx.heap.stats().live_objects, reachable_objects(back));
  EXPECT_EQ(back.gc(), 0u);
}

TEST(Persist, EpochAdvancesEachPersist) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  const auto e0 = tree.epoch();
  tree.persist();
  tree.persist();
  EXPECT_EQ(tree.epoch(), e0 + 2);
}

}  // namespace
}  // namespace pmo::pmoctree
