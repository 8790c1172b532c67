// Automated C0 sizing (the paper's §6 future work): the DRAM budget
// adapts to keep the NVBM tier's share of memory accesses in band.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "amr/droplet.hpp"
#include "amr/pm_backend.hpp"
#include "common/rng.hpp"

namespace pmo::pmoctree {
namespace {

nvbm::Config dev_cfg() {
  nvbm::Config c;
  c.latency_mode = nvbm::LatencyMode::kModeled;
  return c;
}

/// Paper Eq. 1 recomputed from the tree's current budget and depth.
int eq1_subtree_level(const PmOctree& tree) {
  const double budget_nodes = std::max<double>(
      1.0, static_cast<double>(tree.dram_budget()) / sizeof(PNode));
  const int span =
      static_cast<int>(std::floor(std::log(budget_nodes) / std::log(8.0)));
  return std::clamp(tree.depth() - span, 0, tree.depth());
}

TEST(AutoBudget, GrowsUnderNvbmPressure) {
  nvbm::Device dev(256 << 20, dev_cfg());
  nvbm::Heap heap(dev);
  PmConfig pm;
  pm.dram_budget_bytes = 64 << 10;  // deliberately starved
  pm.auto_budget = true;
  pm.enable_transform = false;
  auto tree = PmOctree::create(heap, pm);
  for (int l = 0; l < 3; ++l)
    tree.refine_where([](const LocCode&, const CellData&) { return true; });
  const auto before = tree.dram_budget();
  // NVBM-heavy steps: full-tree rewrites with persists.
  for (int s = 0; s < 5; ++s) {
    tree.for_each_leaf_mut([&](const LocCode&, CellData& d) {
      d.tracer += 1.0;
      return true;
    });
    tree.persist();
  }
  EXPECT_GT(tree.dram_budget(), before);
  EXPECT_LE(tree.dram_budget(), pm.auto_budget_max_bytes);
  // The adapted budget moved Eq. 1's span (level 1 at the starting
  // budget, 0 here): the tree must not keep the stale one.
  EXPECT_EQ(tree.subtree_level(), eq1_subtree_level(tree));
}

TEST(AutoBudget, ShrinksWhenDramOverProvisioned) {
  nvbm::Device dev(256 << 20, dev_cfg());
  nvbm::Heap heap(dev);
  PmConfig pm;
  pm.dram_budget_bytes = 8 << 20;  // far more than the tiny tree needs
  pm.auto_budget = true;
  pm.auto_budget_min_bytes = 16 << 10;
  // The persist/GC machinery puts a small NVBM access floor (~12% for a
  // tiny tree) under every workload; set the shrink mark above it.
  pm.auto_budget_low = 0.2;
  pm.enable_transform = false;
  auto tree = PmOctree::create(heap, pm);
  for (int l = 0; l < 2; ++l)
    tree.refine_where([](const LocCode&, const CellData&) { return true; });
  const auto before = tree.dram_budget();
  // DRAM-dominated steps: many solver sweeps, barely any change to
  // persist — the NVBM share of accesses stays tiny.
  for (int s = 0; s < 5; ++s) {
    for (int sweep = 0; sweep < 20; ++sweep) {
      tree.for_each_leaf_mut([&](const LocCode& c, CellData& d) {
        if (c.child_index() != 0) return false;
        d.tracer += 1.0;
        return true;
      });
    }
    tree.persist();
  }
  EXPECT_LT(tree.dram_budget(), before);
  EXPECT_GE(tree.dram_budget(), pm.auto_budget_min_bytes);
  EXPECT_EQ(tree.subtree_level(), eq1_subtree_level(tree));
}

TEST(AutoBudget, DisabledBudgetStaysFixed) {
  nvbm::Device dev(256 << 20, dev_cfg());
  nvbm::Heap heap(dev);
  PmConfig pm;
  pm.dram_budget_bytes = 1 << 20;
  pm.auto_budget = false;
  auto tree = PmOctree::create(heap, pm);
  tree.refine(LocCode::root());
  for (int s = 0; s < 3; ++s) tree.persist();
  EXPECT_EQ(tree.dram_budget(), std::size_t{1} << 20);
}

TEST(AutoBudget, ReducesModeledTimeOnStarvedWorkload) {
  // End-to-end: starting starved, the controller should land closer to
  // the fixed-large configuration's performance than the fixed-small one.
  auto run = [](bool adapt, std::size_t budget) {
    nvbm::Device dev(256 << 20, dev_cfg());
    nvbm::Heap heap(dev);
    PmConfig pm;
    pm.dram_budget_bytes = budget;
    pm.auto_budget = adapt;
    pm.enable_transform = false;
    auto tree = PmOctree::create(heap, pm);
    for (int l = 0; l < 3; ++l)
      tree.refine_where(
          [](const LocCode&, const CellData&) { return true; });
    for (int s = 0; s < 8; ++s) {
      tree.for_each_leaf_mut([&](const LocCode&, CellData& d) {
        d.tracer += 1.0;
        return true;
      });
      tree.persist();
    }
    return tree.modeled_ns();
  };
  const auto starved = run(false, 64 << 10);
  const auto adaptive = run(true, 64 << 10);
  EXPECT_LT(adaptive, starved);
}

TEST(DramBudget, HeldAtEveryPersist) {
  // The starved run above, with random updates and refinements between
  // persists and no budget check of their own: copy-on-write and the
  // merge may grow C0 past its budget, but every persist must end within
  // it (PmConfig::dram_overflow allows overflow only between merges).
  nvbm::Device dev(256 << 20, dev_cfg());
  nvbm::Heap heap(dev);
  PmConfig pm;
  pm.dram_budget_bytes = 64 << 10;
  pm.enable_transform = false;
  auto tree = PmOctree::create(heap, pm);
  for (int l = 0; l < 3; ++l)
    tree.refine_where([](const LocCode&, const CellData&) { return true; });
  Rng rng(21);
  for (int s = 0; s < 12; ++s) {
    tree.for_each_leaf_mut([&](const LocCode&, CellData& d) {
      if (!rng.chance(0.6)) return false;
      d.tracer += 1.0;
      return true;
    });
    std::vector<LocCode> leaves;
    tree.for_each_leaf(
        [&](const LocCode& c, const CellData&) { leaves.push_back(c); });
    for (const LocCode& c : leaves) {
      if (c.level() < 4 && rng.chance(0.02)) tree.refine(c);
    }
    tree.persist();
    const PmStats st = tree.stats();
    EXPECT_LE(st.dram_bytes, tree.dram_budget())
        << "persist " << s << ": " << st.dram_nodes << " octants in a "
        << tree.dram_budget() / sizeof(PNode) << "-octant C0";
  }
}

}  // namespace
}  // namespace pmo::pmoctree
