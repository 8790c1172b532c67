// Differential property testing: PM-octree must behave exactly like the
// plain in-memory octree under any sequence of meshing operations — the
// persistence machinery (copy-on-write, tiers, twins, GC, transformation)
// is supposed to be invisible to the meshing semantics. Also covers the
// bottom-up (Sundar-style) construction path against top-down insertion.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "octree/octree.hpp"
#include "pmoctree/pm_octree.hpp"

namespace pmo {
namespace {

nvbm::Config dev_cfg() {
  nvbm::Config c;
  c.latency_mode = nvbm::LatencyMode::kNone;
  return c;
}

using LeafMap = std::map<std::uint64_t, CellData>;

LeafMap leaves_of(octree::Octree& t) {
  LeafMap out;
  t.for_each_leaf([&](const octree::Node& n) {
    out[n.code.key() | (std::uint64_t(n.code.level()) << 60)] = n.data;
  });
  return out;
}

LeafMap leaves_of(pmoctree::PmOctree& t) {
  LeafMap out;
  t.for_each_leaf([&](const LocCode& c, const CellData& d) {
    out[c.key() | (std::uint64_t(c.level()) << 60)] = d;
  });
  return out;
}

bool equal_maps(const LeafMap& a, const LeafMap& b) {
  if (a.size() != b.size()) return false;
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
    if (ia->first != ib->first || !(ia->second == ib->second)) return false;
  }
  return true;
}

class Differential : public ::testing::TestWithParam<int> {};

TEST_P(Differential, PmOctreeMatchesPlainOctreeUnderRandomOps) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 2654435761u + 17);

  octree::Octree ref;
  nvbm::Device dev(256 << 20, dev_cfg());
  nvbm::Heap heap(dev);
  pmoctree::PmConfig pm;
  // Vary residence policy per seed: all-DRAM, all-NVBM, tiny mixed.
  pm.dram_budget_bytes =
      (seed % 3 == 0) ? 0
      : (seed % 3 == 1) ? (std::size_t{64} << 20)
                        : 24 * sizeof(pmoctree::PNode);
  auto sut = pmoctree::PmOctree::create(heap, pm);

  for (int op = 0; op < 60; ++op) {
    // Pick a random leaf of the reference tree.
    std::vector<LocCode> leaves;
    ref.for_each_leaf(
        [&](const octree::Node& n) { leaves.push_back(n.code); });
    const auto& victim =
        leaves[static_cast<std::size_t>(rng.below(leaves.size()))];
    const auto roll = rng.below(100);
    if (roll < 35 && victim.level() < 5) {
      ref.refine(ref.find(victim));
      sut.refine(victim);
    } else if (roll < 50 && victim.level() > 0) {
      // Coarsen the victim's parent when all children are leaves.
      auto* parent = ref.find(victim.parent());
      bool all_leaves = true;
      for (const auto* c : parent->children)
        all_leaves &= (c != nullptr && c->is_leaf());
      if (all_leaves) {
        ref.coarsen(parent, [](octree::Node&) {});
        // PmOctree::coarsen averages children into the parent; mirror
        // that by writing the averaged value into the reference parent.
        sut.coarsen(victim.parent());
        parent->data = *sut.find(victim.parent());
      }
    } else if (roll < 85) {
      CellData d;
      d.vof = rng.uniform();
      d.tracer = rng.uniform();
      ref.find(victim)->data = d;
      sut.update(victim, d);
    } else if (roll < 93) {
      // The internal-octant rule against the reference's per-leaf rule.
      EXPECT_EQ(sut.is_balanced(), ref.is_balanced())
          << "is_balanced diverged at op " << op;
      const auto split = ref.balance();
      const auto split2 = sut.balance();
      EXPECT_EQ(split2, split) << "balance diverged at op " << op;
    } else {
      sut.persist();  // must be a meshing no-op
    }
    if (op % 10 == 9) {
      ASSERT_TRUE(equal_maps(leaves_of(ref), leaves_of(sut)))
          << "seed " << seed << " op " << op;
    }
  }
  EXPECT_TRUE(equal_maps(leaves_of(ref), leaves_of(sut)));
  // Epilogue: a final persist + restore must also match.
  sut.persist();
  auto back = pmoctree::PmOctree::restore(heap, pm);
  EXPECT_TRUE(equal_maps(leaves_of(ref), leaves_of(back)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential, ::testing::Range(0, 9));

// ---------------------------------------------------------------------------
// Bottom-up construction (Sundar et al., §2)
// ---------------------------------------------------------------------------

TEST(BottomUp, MatchesTopDownForRandomTrees) {
  Rng rng(99);
  for (int trial = 0; trial < 8; ++trial) {
    octree::Octree ref;
    for (int r = 0; r < 3; ++r) {
      ref.refine_where([&](const octree::Node& n) {
        return n.code.level() < 5 && rng.chance(0.4);
      });
    }
    std::vector<LocCode> codes;
    for (auto* leaf : ref.leaves_in_morton_order())
      codes.push_back(leaf->code);
    auto built = octree::Octree::from_leaves(codes);
    EXPECT_EQ(built.node_count(), ref.node_count()) << "trial " << trial;
    EXPECT_EQ(built.leaf_count(), codes.size());
    // Same leaf set in the same order.
    std::vector<LocCode> got;
    for (auto* leaf : built.leaves_in_morton_order())
      got.push_back(leaf->code);
    EXPECT_EQ(got, codes);
  }
}

TEST(BottomUp, SingleRootLeaf) {
  auto t = octree::Octree::from_leaves({LocCode::root()});
  EXPECT_EQ(t.node_count(), 1u);
}

TEST(BottomUp, RejectsNonCoveringLeafSets) {
  // 7 of 8 children: child 3 missing.
  std::vector<LocCode> codes;
  for (int i = 0; i < 8; ++i) {
    if (i != 3) codes.push_back(LocCode::root().child(i));
  }
  EXPECT_THROW(octree::Octree::from_leaves(codes), ContractError);
  EXPECT_THROW(octree::Octree::from_leaves({}), ContractError);
}

TEST(BottomUp, RejectsOverlappingLeaves) {
  // Root's children plus a grandchild that is already covered.
  std::vector<LocCode> codes;
  for (int i = 0; i < 8; ++i) codes.push_back(LocCode::root().child(i));
  codes.push_back(LocCode::root().child(7).child(0));
  std::sort(codes.begin(), codes.end());
  EXPECT_THROW(octree::Octree::from_leaves(codes), ContractError);
}

}  // namespace
}  // namespace pmo
