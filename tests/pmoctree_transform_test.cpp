// Feature-directed sampling and dynamic layout transformation (§3.3).
#include <gtest/gtest.h>

#include <vector>

#include "amr/droplet.hpp"
#include "amr/pm_backend.hpp"
#include "pmoctree/pm_octree.hpp"

namespace pmo::pmoctree {
namespace {

nvbm::Config dev_cfg() {
  nvbm::Config c;
  c.latency_mode = nvbm::LatencyMode::kModeled;
  return c;
}


/// Builds a tree refined uniformly to `levels`, with the octant region
/// under root child `hot_child` marked hot (vof = 1).
PmOctree build_tree(nvbm::Heap& heap, PmConfig pm, int levels,
                    int hot_child) {
  auto tree = PmOctree::create(heap, pm);
  for (int l = 0; l < levels; ++l)
    tree.refine_where([](const LocCode&, const CellData&) { return true; });
  const auto hot = LocCode::root().child(hot_child);
  tree.for_each_leaf_mut([&](const LocCode& c, CellData& d) {
    d.vof = hot.contains(c) ? 1.0 : 0.0;
    return true;
  });
  return tree;
}

TEST(SubtreeLevel, FollowsEquationOne) {
  nvbm::Device dev(64 << 20, dev_cfg());
  nvbm::Heap heap(dev);
  PmConfig pm;
  pm.dram_budget_bytes = 64 * sizeof(PNode);  // log8(64) = 2
  auto tree = build_tree(heap, pm, 3, 0);     // depth 3
  EXPECT_EQ(tree.subtree_level(), 1);         // 3 - 2
}

TEST(SubtreeLevel, ClampedToValidRange) {
  nvbm::Device dev(64 << 20, dev_cfg());
  nvbm::Heap heap(dev);
  PmConfig pm;
  pm.dram_budget_bytes = 1 << 30;  // huge: whole tree fits
  auto tree = build_tree(heap, pm, 2, 0);
  EXPECT_EQ(tree.subtree_level(), 0);
}

TEST(Transform, NoFeaturesMeansNoTransform) {
  nvbm::Device dev(64 << 20, dev_cfg());
  nvbm::Heap heap(dev);
  PmConfig pm;
  pm.dram_budget_bytes = 100 * sizeof(PNode);
  auto tree = build_tree(heap, pm, 3, 0);
  const auto out = tree.maybe_transform();
  EXPECT_FALSE(out.transformed);
  EXPECT_EQ(out.subtrees_sampled, 0u);
}

TEST(Transform, MovesHotSubtreeIntoDram) {
  nvbm::Device dev(256 << 20, dev_cfg());
  nvbm::Heap heap(dev);
  PmConfig pm;
  pm.dram_budget_bytes = 90 * sizeof(PNode);  // roughly one subtree's worth
  pm.t_transform = 1.5;
  auto tree = build_tree(heap, pm, 3, /*hot_child=*/5);
  tree.persist();
  auto hot_in_dram = [&] {
    std::size_t n = 0;
    tree.for_each_node_ex(
        [&](const LocCode&, const CellData& d, bool, bool in_dram) {
          if (in_dram && d.vof > 0.5) ++n;
        });
    return n;
  };
  // First-touch filled DRAM in Morton order: the hot (child-5) region is
  // late in that order, so little of it is resident yet.
  const auto before = hot_in_dram();

  tree.register_feature([](const LocCode&, const CellData& d) {
    return d.vof > 0.5;  // the refinement predicate: hot region
  });
  const auto out = tree.maybe_transform();
  EXPECT_TRUE(out.transformed);
  EXPECT_GT(out.moved_to_dram, 0u);
  EXPECT_GT(out.best_ratio, pm.t_transform);
  EXPECT_GT(hot_in_dram(), before);
}

TEST(Transform, ColdUniformTreeDoesNotTransform) {
  nvbm::Device dev(256 << 20, dev_cfg());
  nvbm::Heap heap(dev);
  PmConfig pm;
  pm.dram_budget_bytes = 90 * sizeof(PNode);
  auto tree = build_tree(heap, pm, 3, 0);
  tree.for_each_leaf_mut([](const LocCode&, CellData& d) {
    d.vof = 0.0;  // nothing is interesting anywhere
    return true;
  });
  tree.persist();
  tree.register_feature(
      [](const LocCode&, const CellData& d) { return d.vof > 0.5; });
  const auto out = tree.maybe_transform();
  // Ratio is 1 (all frequencies zero): below any threshold > 1.
  EXPECT_FALSE(out.transformed);
}

TEST(Transform, DisabledByConfig) {
  nvbm::Device dev(256 << 20, dev_cfg());
  nvbm::Heap heap(dev);
  PmConfig pm;
  pm.dram_budget_bytes = 90 * sizeof(PNode);
  pm.enable_transform = false;
  auto tree = build_tree(heap, pm, 3, 5);
  tree.register_feature(
      [](const LocCode&, const CellData& d) { return d.vof > 0.5; });
  auto hot_in_dram = [&] {
    std::size_t n = 0;
    tree.for_each_node_ex(
        [&](const LocCode&, const CellData& d, bool, bool in_dram) {
          if (in_dram && d.vof > 0.5) ++n;
        });
    return n;
  };
  const auto before = hot_in_dram();
  tree.persist();  // would transform if enabled
  // Without the transformation nothing relocates the hot region to DRAM.
  EXPECT_LE(hot_in_dram(), before);
}

TEST(Transform, ReducesNvbmWritesOnHotWorkload) {
  // The §3.3 motivating experiment: serving a write-heavy workload on a
  // hot subdomain with the locality-aware layout (hot subtree in DRAM)
  // must issue far fewer NVBM writes than the locality-oblivious layout
  // (hot subtree left in NVBM after the merge). The paper reports up to
  // 89% more NVBM writes for the oblivious layout.
  const int hot = 2;
  auto run = [&](bool transform) {
    nvbm::Device dev(256 << 20, dev_cfg());
    nvbm::Heap heap(dev);
    PmConfig pm;
    pm.dram_budget_bytes = 90 * sizeof(PNode);
    pm.enable_transform = transform;
    auto tree = build_tree(heap, pm, 3, hot);
    tree.register_feature(
        [](const LocCode&, const CellData& d) { return d.vof > 0.5; });
    tree.persist();  // everything merges to NVBM; transform (if enabled)
                     // then pulls the hot subtree back into DRAM

    // History pass: the solver touches cold regions first (the shifted
    // access pattern of a previous phase). Under first-touch placement
    // this fills the oblivious layout's DRAM with cold octants — the
    // exact Fig. 5a situation.
    tree.for_each_leaf_mut([](const LocCode&, CellData& d) {
      if (d.vof > 0.5) return false;
      d.pressure += 1.0;
      return true;
    });

    dev.reset_counters();
    // Three solver sweeps writing only the hot (interface) cells — the
    // droplet workload's dominant access pattern between persists.
    for (int pass = 0; pass < 3; ++pass) {
      tree.for_each_leaf_mut([&](const LocCode&, CellData& d) {
        if (d.vof < 0.5) return false;
        d.tracer += 1.0;
        return true;
      });
    }
    return dev.counters().writes;
  };
  const auto with_transform = run(true);
  const auto without = run(false);
  EXPECT_LT(with_transform, without);
  // The effect must be structural (hot writes served from DRAM), not a
  // rounding error: expect at least a ~2x reduction.
  EXPECT_LT(static_cast<double>(with_transform),
            0.5 * static_cast<double>(without));
}

TEST(Transform, VersionContentUnchangedByRelayout) {
  nvbm::Device dev(256 << 20, dev_cfg());
  nvbm::Heap heap(dev);
  PmConfig pm;
  pm.dram_budget_bytes = 90 * sizeof(PNode);
  auto tree = build_tree(heap, pm, 3, 6);
  tree.persist();
  std::vector<std::pair<std::uint64_t, double>> before;
  tree.for_each_leaf([&](const LocCode& c, const CellData& d) {
    before.emplace_back(c.key(), d.vof);
  });
  tree.register_feature(
      [](const LocCode&, const CellData& d) { return d.vof > 0.5; });
  const auto out = tree.maybe_transform();
  ASSERT_TRUE(out.transformed);
  std::vector<std::pair<std::uint64_t, double>> after;
  tree.for_each_leaf([&](const LocCode& c, const CellData& d) {
    after.emplace_back(c.key(), d.vof);
  });
  EXPECT_EQ(before, after);
  // And the persisted version still restores identically.
  auto back = PmOctree::restore(heap, pm);
  std::vector<std::pair<std::uint64_t, double>> restored;
  back.for_each_leaf([&](const LocCode& c, const CellData& d) {
    restored.emplace_back(c.key(), d.vof);
  });
  EXPECT_EQ(before, restored);
}

TEST(Transform, SamplingTouchesAtMostNSamplePerSubtree) {
  nvbm::Device dev(256 << 20, dev_cfg());
  nvbm::Heap heap(dev);
  PmConfig pm;
  pm.dram_budget_bytes = 90 * sizeof(PNode);
  pm.n_sample = 10;
  auto tree = build_tree(heap, pm, 3, 1);
  tree.persist();
  tree.register_feature(
      [](const LocCode&, const CellData& d) { return d.vof > 0.5; });
  const auto out = tree.maybe_transform();
  EXPECT_GT(out.subtrees_sampled, 0u);
  EXPECT_LE(out.octants_sampled, out.subtrees_sampled * pm.n_sample);
}

TEST(Transform, C0CountsOnlyReachableOctants) {
  // A droplet under a tight C0 with the transformation on: dram_bytes()
  // feeds every placement and eviction decision, so it must count exactly
  // the C0 octants V_i reaches. A transformation that fills C0 partway
  // through a subtree must not leave unreachable copies counted.
  nvbm::Device dev(64 << 20, dev_cfg());
  PmConfig pm;
  pm.dram_budget_bytes = 16 << 10;
  amr::PmOctreeBackend mesh(dev, pm);
  amr::DropletParams params;
  params.min_level = 3;
  params.max_level = 5;
  params.dt = 0.12;
  amr::DropletWorkload wl(params);
  mesh.register_feature([&wl](const LocCode& c, const CellData& d) {
    return wl.hot_feature(c, d);
  });
  wl.initialize(mesh);
  std::uint64_t runs = 0;
  for (int s = 0; s < 6; ++s) {
    const auto before = telemetry::Registry::global()
                            .counter("pmoctree.transform.runs")
                            .value();
    wl.step(mesh, s);
    runs += telemetry::Registry::global()
                .counter("pmoctree.transform.runs")
                .value() -
            before;
    const PmStats st = mesh.tree().stats();
    EXPECT_EQ(st.dram_nodes * sizeof(PNode), st.dram_bytes)
        << "step " << s << ": " << st.dram_nodes << " reachable vs "
        << st.dram_bytes / sizeof(PNode) << " counted";
  }
  if (telemetry::enabled()) {
    EXPECT_GT(runs, 0u) << "the transformation never ran";
  }
}

}  // namespace
}  // namespace pmo::pmoctree
