// Core PM-octree behaviour: creation, mutation, traversal, placement.
#include "pmoctree/pm_octree.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <initializer_list>
#include <map>
#include <set>
#include <vector>

#include "pmoctree/api.hpp"
#include "serve/reader.hpp"

namespace pmo::pmoctree {
namespace {

nvbm::Config dev_cfg() {
  nvbm::Config c;
  c.latency_mode = nvbm::LatencyMode::kModeled;
  return c;
}

struct Fixture {
  explicit Fixture(std::size_t capacity = 64 << 20,
                   PmConfig pm = PmConfig{})
      : device(capacity, dev_cfg()), heap(device), config(pm) {}

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

TEST(PmOctree, CreateHasRootOnly) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_FALSE(tree.has_prev_version());
  EXPECT_TRUE(tree.contains(LocCode::root()));
}

TEST(PmOctree, InsertFindRoundTrip) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  const auto code = LocCode::from_grid(3, 1, 2, 3);
  tree.insert(code, cell(0.7, 3.0));
  const auto found = tree.find(code);
  ASSERT_TRUE(found.has_value());
  EXPECT_DOUBLE_EQ(found->vof, 0.7);
  EXPECT_DOUBLE_EQ(found->tracer, 3.0);
  EXPECT_FALSE(tree.find(code.child(0)).has_value());
}

TEST(PmOctree, InsertMaintainsZeroOrEightInvariant) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.insert(LocCode::from_grid(4, 3, 7, 9), cell(1.0));
  tree.for_each_node([&](const LocCode& code, const CellData&, bool leaf) {
    if (leaf) return;
    int kids = 0;
    for (int i = 0; i < kChildrenPerNode; ++i) {
      kids += tree.contains(code.child(i));
    }
    EXPECT_EQ(kids, 8) << code.to_string();
  });
}

TEST(PmOctree, UpdateChangesExistingOctant) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  const auto code = LocCode::from_grid(2, 1, 1, 1);
  tree.insert(code, cell(0.1));
  tree.update(code, cell(0.9));
  EXPECT_DOUBLE_EQ(tree.find(code)->vof, 0.9);
  EXPECT_THROW(tree.update(code.child(5), cell(1.0)), ContractError);
}

TEST(PmOctree, RefineCreatesChildrenInheritingData) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  const auto code = LocCode::from_grid(1, 0, 0, 0);
  tree.insert(code, cell(0.25));
  tree.refine(code);
  for (int i = 0; i < kChildrenPerNode; ++i) {
    const auto child = tree.find(code.child(i));
    ASSERT_TRUE(child.has_value());
    EXPECT_DOUBLE_EQ(child->vof, 0.25);
  }
}

TEST(PmOctree, RefineInitOverride) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.refine(LocCode::root(), [](const LocCode& c, CellData& d) {
    d.tracer = static_cast<double>(c.child_index());
  });
  for (int i = 0; i < kChildrenPerNode; ++i) {
    EXPECT_DOUBLE_EQ(tree.find(LocCode::root().child(i))->tracer, i);
  }
}

TEST(PmOctree, CoarsenAveragesChildren) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.refine(LocCode::root());
  for (int i = 0; i < kChildrenPerNode; ++i) {
    tree.update(LocCode::root().child(i), cell(static_cast<double>(i + 1)));
  }
  tree.coarsen(LocCode::root());
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.find(LocCode::root())->vof, 4.5);
}

TEST(PmOctree, RemoveDetachesSubtree) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  const auto code = LocCode::from_grid(2, 0, 0, 0);
  tree.insert(code, cell(1.0));
  const auto before = tree.node_count();
  tree.remove(LocCode::root().child(0));
  EXPECT_LT(tree.node_count(), before);
  EXPECT_FALSE(tree.contains(code));
  EXPECT_THROW(tree.remove(LocCode::root()), ContractError);
}

TEST(PmOctree, SampleReturnsContainingLeafData) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.insert(LocCode::from_grid(1, 1, 0, 0), cell(0.5));
  // Deep probe inside child(0) region, which is a level-1 leaf.
  const auto probe = LocCode::from_grid(5, 1, 1, 1);
  EXPECT_EQ(tree.leaf_containing(probe).level(), 1);
  EXPECT_DOUBLE_EQ(tree.sample(probe).vof, 0.0);
}

TEST(PmOctree, TraversalVisitsLeavesInMortonOrder) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.insert(LocCode::from_grid(2, 3, 3, 3), cell(1.0));
  std::vector<LocCode> visited;
  tree.for_each_leaf(
      [&](const LocCode& c, const CellData&) { visited.push_back(c); });
  for (std::size_t i = 1; i < visited.size(); ++i) {
    EXPECT_LT(visited[i - 1], visited[i]);
  }
  EXPECT_EQ(visited.size(), tree.leaf_count());
}

TEST(PmOctree, MutableTraversalWritesBack) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.insert(LocCode::from_grid(2, 1, 2, 3), cell(0.0));
  tree.for_each_leaf_mut([](const LocCode&, CellData& d) {
    d.tracer = 42.0;
    return true;
  });
  tree.for_each_leaf([](const LocCode&, const CellData& d) {
    EXPECT_DOUBLE_EQ(d.tracer, 42.0);
  });
}

TEST(PmOctree, MutableTraversalSkipsUnmodified) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.refine(LocCode::root());
  const auto writes_before = fx.device.counters().writes +
                             tree.dram_counters().writes;
  tree.for_each_leaf_mut([](const LocCode&, CellData&) { return false; });
  const auto writes_after =
      fx.device.counters().writes + tree.dram_counters().writes;
  EXPECT_EQ(writes_after, writes_before);
}

TEST(PmOctree, BalanceEnforcesTwoToOne) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  // Center-directed chain: creates a 2-level jump against the coarse
  // siblings (see octree_test.cpp for the geometry).
  LocCode code = LocCode::root();
  tree.refine(code);
  code = code.child(0);
  for (int l = 1; l < 4; ++l) {
    tree.refine(code);
    code = code.child(7);
  }
  EXPECT_FALSE(tree.is_balanced());
  EXPECT_GT(tree.balance(), 0u);
  EXPECT_TRUE(tree.is_balanced());
  EXPECT_EQ(tree.balance(), 0u);
}

TEST(PmOctree, BalanceIgnoresHolesLeftByRemove) {
  // remove() leaves the root with a missing child, and child(1)'s
  // neighbors there have no leaf to split. Before the child(0) hole comes
  // the internal root; before the child(3) hole, the leaf child(2), which
  // does not contain it.
  for (const int hole : {0, 3}) {
    Fixture fx;
    auto tree = PmOctree::create(fx.heap, fx.config);
    tree.refine(LocCode::root());
    tree.refine(LocCode::root().child(1));
    tree.remove(LocCode::root().child(hole));
    EXPECT_TRUE(tree.is_balanced()) << "hole at child " << hole;
    EXPECT_EQ(tree.balance(), 0u) << "hole at child " << hole;
  }
}

/// V_i's octants, code -> is_leaf (for_each_node charges its reads).
std::map<LocCode, bool> octant_map(PmOctree& tree) {
  std::map<LocCode, bool> out;
  tree.for_each_node([&](const LocCode& code, const CellData&, bool leaf) {
    out[code] = leaf;
  });
  return out;
}

/// C0 lines one charged traversal of `octs` reads: the payload line of a
/// leaf, both lines of an internal octant.
std::uint64_t traversal_lines(const std::map<LocCode, bool>& octs) {
  std::uint64_t lines = 0;
  for (const auto& [code, leaf] : octs) lines += leaf ? 1 : 2;
  return lines;
}

TEST(PmOctree, BalanceReadsTheTreeOnce) {
  // A centre-directed chain two levels deeper than BalanceEnforcesTwoToOne's:
  // leaves that one pass creates need splits of their own, so balance takes
  // more than one ripple pass. Only pass 1 reads the tree; each split then
  // adds refine()'s descent to its leaf, 2 * level + 1 C0 lines.
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  LocCode code = LocCode::root();
  tree.refine(code);
  code = code.child(0);
  for (int l = 1; l < 6; ++l) {
    tree.refine(code);
    code = code.child(7);
  }
  const auto before = octant_map(tree);
  const auto dram_lines = tree.dram_counters().lines_read;
  const auto nvbm_lines = fx.device.counters().lines_read;
  const std::size_t split = tree.balance();
  const auto read = tree.dram_counters().lines_read - dram_lines;
  EXPECT_EQ(fx.device.counters().lines_read, nvbm_lines);  // all in C0

  std::uint64_t expected = traversal_lines(before);
  std::size_t leaves_split = 0;
  bool ripple = false;  // a leaf that balance itself created was split
  for (const auto& [c, leaf] : octant_map(tree)) {
    const auto it = before.find(c);
    if (leaf || (it != before.end() && !it->second)) continue;
    ++leaves_split;
    expected += 2 * static_cast<std::uint64_t>(c.level()) + 1;
    ripple |= it == before.end();
  }
  EXPECT_TRUE(ripple);
  EXPECT_EQ(leaves_split, split);
  EXPECT_EQ(read, expected);
  EXPECT_TRUE(tree.is_balanced());
}

TEST(PmOctree, CoarsenWhereReadsEachOctantOnce) {
  // One traversal finds the groups, reading each octant once; each
  // coarsen() then descends to its group (2 * (level + 1) C0 lines) and
  // reads its eight leaves (one line each).
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  const LocCode root = LocCode::root();
  tree.refine(root);
  for (int i = 0; i < kChildrenPerNode; ++i) tree.refine(root.child(i));
  tree.refine(root.child(0).child(0));
  tree.refine(root.child(3).child(5));
  const auto before = octant_map(tree);
  const auto dram_lines = tree.dram_counters().lines_read;
  // root.child(6)'s leaves disagree; root.child(0) and root.child(3) have
  // an internal child.
  const std::size_t merged = tree.coarsen_where(
      [&](const LocCode& c, const CellData&) {
        return !root.child(6).contains(c);
      });
  const auto read = tree.dram_counters().lines_read - dram_lines;

  std::uint64_t expected = traversal_lines(before);
  std::size_t groups = 0;
  for (const auto& [c, leaf] : octant_map(tree)) {
    if (!leaf || before.at(c)) continue;
    ++groups;
    expected += 2 * (static_cast<std::uint64_t>(c.level()) + 1) +
                kChildrenPerNode;
  }
  EXPECT_EQ(merged, 7u);
  EXPECT_EQ(groups, merged);
  EXPECT_EQ(read, expected);
}

TEST(PmOctree, SmallBudgetPlacesNodesInNvbm) {
  PmConfig pm;
  pm.dram_budget_bytes = 0;  // force everything to NVBM
  Fixture fx(64 << 20, pm);
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.insert(LocCode::from_grid(3, 1, 1, 1), cell(1.0));
  const auto s = tree.stats();
  EXPECT_EQ(s.dram_nodes, 0u);
  EXPECT_EQ(s.nvbm_nodes_vi, s.nodes);
  EXPECT_GT(fx.device.counters().writes, 0u);
}

TEST(PmOctree, LargeBudgetKeepsEverythingInDram) {
  PmConfig pm;
  pm.dram_budget_bytes = 256 << 20;
  Fixture fx(64 << 20, pm);
  auto tree = PmOctree::create(fx.heap, pm);
  tree.insert(LocCode::from_grid(3, 5, 5, 5), cell(1.0));
  const auto s = tree.stats();
  EXPECT_EQ(s.nvbm_nodes_vi, 0u);
  EXPECT_EQ(s.dram_nodes, s.nodes);
}

TEST(PmOctree, BudgetPressureEvictsToNvbm) {
  PmConfig pm;
  pm.dram_budget_bytes = 64 * sizeof(PNode);  // room for ~64 nodes
  Fixture fx(256 << 20, pm);
  auto tree = PmOctree::create(fx.heap, pm);
  // Create far more nodes than the DRAM budget allows.
  for (int l = 0; l < 3; ++l) {
    tree.refine_where(
        [](const LocCode&, const CellData&) { return true; });
  }
  const auto s = tree.stats();  // 585 nodes total
  EXPECT_EQ(s.nodes, 585u);
  EXPECT_LE(s.dram_bytes, pm.dram_budget_bytes);
  EXPECT_GT(s.nvbm_nodes_vi, 0u);
}

TEST(PmOctree, StatsCountResidenceConsistently) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.insert(LocCode::from_grid(2, 2, 2, 2), cell(0.3));
  const auto s = tree.stats();
  EXPECT_EQ(s.nodes, s.dram_nodes + s.nvbm_nodes_vi);
  EXPECT_EQ(s.nodes, tree.node_count());
  EXPECT_EQ(s.leaves, tree.leaf_count());
  EXPECT_EQ(s.unique_physical_nodes, s.nodes);  // no prev version yet
}

TEST(PmOctree, ModeledTimeGrowsWithNvbmTraffic) {
  PmConfig pm;
  pm.dram_budget_bytes = 0;
  Fixture fx(64 << 20, pm);
  auto tree = PmOctree::create(fx.heap, pm);
  const auto t0 = tree.modeled_ns();
  tree.insert(LocCode::from_grid(3, 1, 1, 1), cell(1.0));
  EXPECT_GT(tree.modeled_ns(), t0);
}

TEST(PmOctree, DestroyFreesEverything) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.insert(LocCode::from_grid(3, 0, 1, 2), cell(1.0));
  tree.persist();
  tree.destroy();
  EXPECT_EQ(fx.heap.stats().live_objects, 0u);
  EXPECT_FALSE(PmOctree::can_restore(fx.heap));
}

TEST(PmOctree, ChildMaskMatchesSlotScanUnderRandomOps) {
  // Differential check of the PNode::flags child-presence bitmask: after a
  // random op mix under memory pressure (DRAM twins, CoW'd NVBM nodes and
  // persist merges all exercised), every reachable node's cached mask must
  // equal a scan of its child slots. The mask feeds is_leaf() and
  // traversal, so a single stale bit here corrupts downstream structures
  // silently.
  Fixture fx;
  fx.config.dram_budget_bytes = 24 * sizeof(PNode);
  auto tree = PmOctree::create(fx.heap, fx.config);
  Rng rng(20260808);
  for (int s = 0; s < 120; ++s) {
    std::vector<LocCode> leaves;
    tree.for_each_leaf(
        [&](const LocCode& c, const CellData&) { leaves.push_back(c); });
    const auto& victim =
        leaves[static_cast<std::size_t>(rng.below(leaves.size()))];
    const auto action = rng.below(4);
    if (action == 0 && victim.level() < 6) {
      tree.refine(victim);
    } else if (action == 1 && victim.level() > 0) {
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
    if (s % 40 == 39) tree.persist();
  }
  tree.persist();

  std::size_t checked = 0;
  std::vector<NodeRef> stack{tree.current_root(), tree.previous_root()};
  while (!stack.empty()) {
    const NodeRef ref = stack.back();
    stack.pop_back();
    if (ref.null()) continue;
    const PNode node = ref.in_dram()
                           ? *ref.dram_ptr()
                           : fx.device.load<PNode>(ref.nvbm_offset());
    std::uint8_t scan = 0;
    for (int i = 0; i < kChildrenPerNode; ++i) {
      const NodeRef c = node.child_ref(i);
      if (c.null()) continue;
      scan |= static_cast<std::uint8_t>(1u << i);
      stack.push_back(c);
    }
    EXPECT_EQ(node.child_mask(), scan)
        << "stale child mask at level " << node.code().level();
    ++checked;
  }
  EXPECT_GT(checked, 16u);  // the walk really covered a non-trivial tree
}

TEST(PmOctreeApi, Table1RoundTrip) {
  Fixture fx;
  auto tree = pm_create(fx.heap);
  tree->insert(LocCode::from_grid(2, 1, 0, 1), cell(0.6));
  pm_persistent(*tree);
  tree.reset();

  auto back = pm_restore(fx.heap);
  EXPECT_DOUBLE_EQ(back->find(LocCode::from_grid(2, 1, 0, 1))->vof, 0.6);
  pm_delete(*back);
  EXPECT_FALSE(PmOctree::can_restore(fx.heap));
}

TEST(PmOctreeApi, CreateAdoptsExistingOctree) {
  Fixture fx;
  octree::Octree vol;
  vol.insert(LocCode::from_grid(2, 3, 3, 3));
  vol.find(LocCode::from_grid(2, 3, 3, 3))->data.tracer = 5.0;
  auto tree = pm_create(fx.heap, &vol);
  EXPECT_EQ(tree->node_count(), vol.node_count());
  EXPECT_DOUBLE_EQ(tree->find(LocCode::from_grid(2, 3, 3, 3))->tracer, 5.0);
}

TEST(PmOctree, RefineWhereAndCoarsenWhere) {
  Fixture fx;
  auto tree = PmOctree::create(fx.heap, fx.config);
  tree.refine(LocCode::root());
  // Mark half the leaves interesting, refine them.
  int i = 0;
  tree.for_each_leaf_mut([&](const LocCode&, CellData& d) {
    d.tracer = (i++ % 2 == 0) ? 1.0 : 0.0;
    return true;
  });
  const auto split = tree.refine_where(
      [](const LocCode&, const CellData& d) { return d.tracer > 0.5; });
  EXPECT_EQ(split, 4u);
  EXPECT_EQ(tree.leaf_count(), 4u + 4u * 8u);
  // Coarsen the ones we refined (children inherited tracer = 1).
  const auto merged = tree.coarsen_where(
      [](const LocCode&, const CellData& d) { return d.tracer > 0.5; });
  EXPECT_EQ(merged, 4u);
  EXPECT_EQ(tree.leaf_count(), 8u);
}

#if PMO_TELEMETRY_ENABLED
TEST(PmOctree, PersistCyclePublishesTelemetry) {
  // A refine -> persist -> mutate -> persist cycle must leave its trace
  // in the global registry: pmoctree.persists counts both persists, the
  // merge produces pmoctree.merge.* activity, and the post-persist
  // mutation of a shared path shows up as pmoctree.cow_copies.
  auto& reg = telemetry::Registry::global();
  const auto before = reg.snapshot();

  {
    // DRAM-resident tree: persist merges the C0 subtree into NVBM.
    Fixture fx;
    auto tree = PmOctree::create(fx.heap, fx.config);
    tree.refine(LocCode::root());
    tree.refine(LocCode::root().child(0));
    tree.persist();
  }
  {
    // Zero DRAM budget: octants live in NVBM, so mutating a path shared
    // with V_{i-1} right after a persist must copy-on-write it.
    PmConfig pm;
    pm.dram_budget_bytes = 0;
    Fixture fx(64 << 20, pm);
    auto tree = PmOctree::create(fx.heap, pm);
    tree.refine(LocCode::root());
    tree.refine(LocCode::root().child(0));
    tree.persist();
    tree.update(LocCode::root().child(0).child(1), cell(0.9));
    tree.persist();
  }

  const auto delta = reg.snapshot().delta(before);
  EXPECT_EQ(delta.counter("pmoctree.persists"), 3u);
  EXPECT_GE(delta.counter("pmoctree.cow_copies"), 1u);
  EXPECT_GT(delta.counter("pmoctree.merge.merged_from_dram"), 0u);
  // persist() runs under a span, with the merge nested inside it.
  ASSERT_NE(delta.histogram("pmoctree.persist"), nullptr);
  EXPECT_EQ(delta.histogram("pmoctree.persist")->count, 3u);
  ASSERT_NE(delta.histogram("pmoctree.persist.merge"), nullptr);
  EXPECT_EQ(delta.histogram("pmoctree.persist.merge")->count, 3u);
}
#endif


// ---- node layout: a payload line and a link line ---------------------------

/// Root split, then children 0 and 5 and grandchild 0.7 split: 4 internal
/// octants and 29 leaves.
void build_layout_tree(PmOctree& tree) {
  tree.refine(LocCode::root());
  tree.refine(LocCode::root().child(0));
  tree.refine(LocCode::root().child(5));
  tree.refine(LocCode::root().child(0).child(7));
}
constexpr std::uint64_t kLayoutLeaves = 29;
constexpr std::uint64_t kLayoutInternal = 4;
/// A visit copies a leaf's payload line and both lines of an internal
/// octant.
constexpr std::uint64_t kLayoutVisitLines =
    kLayoutLeaves + 2 * kLayoutInternal;

std::size_t count_leaves(PmOctree& tree) {
  std::size_t n = 0;
  tree.for_each_leaf([&](const LocCode&, const CellData&) { ++n; });
  return n;
}

serve::Box whole_domain() {
  serve::Box b;
  for (int i = 0; i < 3; ++i) b.hi[i] = (std::uint32_t{1} << kMaxLevel) - 1;
  return b;
}

TEST(NodeLayout, VisitChargesFollowLines) {
  {
    // C0: every octant in DRAM.
    Fixture fx;
    auto tree = PmOctree::create(fx.heap, fx.config);
    build_layout_tree(tree);
    ASSERT_EQ(tree.leaf_count(), kLayoutLeaves);
    ASSERT_EQ(tree.node_count(), kLayoutLeaves + kLayoutInternal);
    const auto dram = tree.dram_counters().lines_read;
    const auto nvbm = fx.device.counters().lines_read;
    EXPECT_EQ(count_leaves(tree), kLayoutLeaves);
    EXPECT_EQ(tree.dram_counters().lines_read - dram, kLayoutVisitLines);
    EXPECT_EQ(fx.device.counters().lines_read, nvbm);
    // A leaf-data write-back in C0 writes its payload line alone.
    const auto written = tree.dram_counters().lines_written;
    tree.update(LocCode::root().child(3), cell(0.4));
    EXPECT_EQ(tree.dram_counters().lines_written - written, 1u);
  }
  {
    // NVBM with the node cache off: every visit reads the device.
    PmConfig pm;
    pm.dram_budget_bytes = 0;
    pm.node_cache_bytes = 0;
    Fixture fx(64 << 20, pm);
    auto tree = PmOctree::create(fx.heap, pm);
    build_layout_tree(tree);
    const auto before = fx.device.counters();
    EXPECT_EQ(count_leaves(tree), kLayoutLeaves);
    EXPECT_EQ(fx.device.counters().lines_read - before.lines_read,
              kLayoutVisitLines);
    EXPECT_EQ(fx.device.counters().reads - before.reads,
              kLayoutLeaves + kLayoutInternal);  // one read per octant
    EXPECT_EQ(fx.device.counters().cached_lines, before.cached_lines);
  }
  {
    // NVBM with the node cache on: a warm pass is served from the cache,
    // charged per cached line.
    PmConfig pm;
    pm.dram_budget_bytes = 0;
    Fixture fx(64 << 20, pm);
    auto tree = PmOctree::create(fx.heap, pm);
    build_layout_tree(tree);
    count_leaves(tree);  // warm
    const auto before = fx.device.counters();
    EXPECT_EQ(count_leaves(tree), kLayoutLeaves);
    EXPECT_EQ(fx.device.counters().cached_lines - before.cached_lines,
              kLayoutVisitLines);
    EXPECT_EQ(fx.device.counters().lines_read, before.lines_read);

    // A whole-domain reader query over the sealed version charges the
    // same lines, from the device and then from its private cache.
    tree.persist();
    serve::ReaderConfig uncached;
    uncached.cache_bytes = 0;
    serve::Reader cold(tree.pin_snapshot(), uncached);
    EXPECT_EQ(cold.query_box(whole_domain(), [](const serve::Leaf&) {}),
              kLayoutLeaves);
    EXPECT_EQ(cold.charges().lines_read, kLayoutVisitLines);
    EXPECT_EQ(cold.charges().modeled_ns,
              kLayoutVisitLines * fx.device.config().read_ns);
    serve::Reader warm(tree.pin_snapshot());
    warm.query_box(whole_domain(), [](const serve::Leaf&) {});
    const auto ns = warm.charges().modeled_ns;
    warm.query_box(whole_domain(), [](const serve::Leaf&) {});
    EXPECT_EQ(warm.charges().modeled_ns - ns,
              kLayoutVisitLines * fx.device.config().dram_read_ns);
  }
  {
    // NVBM stores: a CoW relink and a data write-back store one line
    // each, a children store two (the link line and the flags word).
    PmConfig pm;
    pm.dram_budget_bytes = 0;
    Fixture fx(64 << 20, pm);
    auto tree = PmOctree::create(fx.heap, pm);
    build_layout_tree(tree);
    tree.persist();  // every octant is now shared with V_{i-1}
    const LocCode a = LocCode::root().child(0).child(1);
    const LocCode b = LocCode::root().child(0).child(2);
    tree.update(a, cell(0.1));  // path-copies root and child 0
    auto written = fx.device.counters().lines_written;
    tree.update(b, cell(0.2));  // copies b alone under a private parent
    EXPECT_EQ(fx.device.counters().lines_written - written,
              2u /*copy*/ + 1u /*relink*/ + 1u /*data*/);
    written = fx.device.counters().lines_written;
    tree.update(b, cell(0.3));  // private now: in place
    EXPECT_EQ(fx.device.counters().lines_written - written, 1u);
    written = fx.device.counters().lines_written;
    tree.refine(b);
    EXPECT_EQ(fx.device.counters().lines_written - written,
              kChildrenPerNode * 2u + 2u);
  }
}

/// Odd, so a ref read from a poisoned link line names an NVBM offset far
/// past the end of the device.
constexpr std::uint64_t kPoison = 0x5a5a5a5a5a5a5a5bull;

/// Fills the link line of every leaf reachable from `roots` with kPoison:
/// C0 leaves through their pool pointers, NVBM leaves through Device::raw.
void poison_leaf_links(nvbm::Device& dev,
                       std::initializer_list<NodeRef> roots) {
  std::vector<NodeRef> stack(roots);
  while (!stack.empty()) {
    const NodeRef ref = stack.back();
    stack.pop_back();
    if (ref.null()) continue;
    std::byte* image = ref.in_dram()
                           ? reinterpret_cast<std::byte*>(ref.dram_ptr())
                           : dev.raw(ref.nvbm_offset(), sizeof(PNode));
    PNode node;
    std::memcpy(&node, image, sizeof(PNode));
    if (node.is_leaf()) {
      for (int i = 0; i < kChildrenPerNode; ++i) {
        std::memcpy(image + offsetof(PNode, child) + 8 * i, &kPoison,
                    sizeof(kPoison));
      }
      continue;
    }
    for (int i = 0; i < kChildrenPerNode; ++i) {
      if (node.has_child(i)) stack.push_back(node.child_ref(i));
    }
  }
}

void log_cell(std::vector<std::uint64_t>& log, const CellData& d) {
  for (const double v : {d.vof, d.tracer, d.u, d.v, d.w, d.pressure})
    log.push_back(std::bit_cast<std::uint64_t>(v));
}

void log_leaves(std::vector<std::uint64_t>& log, PmOctree& tree) {
  tree.for_each_leaf([&](const LocCode& c, const CellData& d) {
    log.push_back(c.word());
    log_cell(log, d);
  });
}

void log_persist(std::vector<std::uint64_t>& log, const PersistStats& s) {
  for (const std::uint64_t v :
       {std::uint64_t{s.nodes_total}, std::uint64_t{s.nodes_shared},
        std::uint64_t{s.merged_from_dram}, std::uint64_t{s.gc_freed},
        s.delta_bytes, std::uint64_t{s.visits},
        std::uint64_t{s.pruned_subtrees}})
    log.push_back(v);
}

void log_counters(std::vector<std::uint64_t>& log, PmOctree& tree) {
  const auto& d = tree.dram_counters();
  const auto& n = tree.device().counters();
  for (const std::uint64_t v : {d.lines_read, d.lines_written, n.lines_read,
                                n.lines_written, n.cached_lines})
    log.push_back(v);
}

void log_reader(std::vector<std::uint64_t>& log, serve::Reader& r) {
  const auto leaf = [&](const serve::Leaf& l) {
    log.push_back(l.code.word());
    log_cell(log, l.data);
  };
  log.push_back(r.query_box(whole_domain(), leaf));
  const LocCode deep = LocCode::from_grid(4, 3, 9, 12);
  leaf(r.locate(deep));
  log.push_back(r.find(LocCode::root().child(2)).has_value());
  log.push_back(r.face_neighbors(r.locate(deep).code, leaf));
  log.push_back(r.interface_facets(
      whole_domain(), [&](const serve::InterfaceFacet& f) {
        log.push_back(f.fine.code.word());
        log.push_back(f.coarse.code.word());
      }));
  log.push_back(r.charges().lines_read);
  log.push_back(r.charges().modeled_ns);
}

/// Sweeps, refine/coarsen, balance, persists, reader queries, gc() and a
/// restart over a mixed-residence tree; with `poison`, every leaf's link
/// line is poisoned between the phases. Returns everything observed.
std::vector<std::uint64_t> layout_scenario(bool poison) {
  nvbm::Device dev(64 << 20, dev_cfg());
  PmConfig pm;
  pm.dram_budget_bytes = 40 * sizeof(PNode);  // C0 and NVBM leaves both
  std::vector<std::uint64_t> log;
  {
    nvbm::Heap heap(dev);
    auto tree = PmOctree::create(heap, pm);
    const auto poison_all = [&] {
      if (poison)
        poison_leaf_links(dev, {tree.current_root(), tree.previous_root()});
    };
    tree.refine_where(
        [](const LocCode& c, const CellData&) { return c.level() < 2; });
    int k = 0;
    tree.for_each_leaf_mut([&](const LocCode& c, CellData& d) {
      d.vof = (++k % 7) / 7.0;
      d.tracer = c.level();
      return true;
    });
    log_persist(log, tree.persist());
    poison_all();
    tree.for_each_leaf_mut([](const LocCode&, CellData& d) {
      if (d.vof <= 0.5) return false;
      d.tracer += 1.0;
      return true;
    });
    tree.for_each_leaf_mut_pruned(
        [](const LocCode& c) { return c.child_index() % 2 == 0; },
        [](const LocCode&, CellData& d) {
          d.u += 0.25;
          return true;
        });
    poison_all();
    log.push_back(tree.refine_where([](const LocCode& c, const CellData& d) {
      return c.level() < 4 && d.vof > 0.6;
    }));
    poison_all();
    log.push_back(tree.coarsen_where(
        [](const LocCode&, const CellData& d) { return d.vof < 0.2; }));
    poison_all();
    log.push_back(tree.balance());
    log_leaves(log, tree);
    log_persist(log, tree.persist());
    poison_all();
    tree.insert(LocCode::from_grid(3, 1, 2, 3), cell(0.75));
    {
      serve::Reader reader(tree.pin_snapshot());
      log_reader(log, reader);
    }
    log.push_back(tree.gc());
    poison_all();
    log_persist(log, tree.persist());
    log_counters(log, tree);
    poison_all();
  }
  nvbm::Heap heap(dev);
  auto back = PmOctree::restore(heap, pm);
  log_leaves(log, back);
  back.insert(LocCode::from_grid(3, 6, 5, 4), cell(0.5));
  log_persist(log, back.persist());  // the recovery gc()
  log_leaves(log, back);
  log_counters(log, back);
  return log;
}

TEST(NodeLayout, LeafLinkLineIsNeverRead) {
  const auto clean = layout_scenario(false);
  const auto poisoned = layout_scenario(true);
  ASSERT_EQ(clean.size(), poisoned.size());
  for (std::size_t i = 0; i < clean.size(); ++i)
    ASSERT_EQ(clean[i], poisoned[i]) << "first difference at entry " << i;
}

}  // namespace
}  // namespace pmo::pmoctree
