// Partitioner and cluster-simulator tests: SFC partitioning correctness
// and the scaling shapes the figure benches rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>

#include "amr/pm_backend.hpp"
#include "cluster/cluster_sim.hpp"

namespace pmo::cluster {
namespace {

nvbm::Config dev_cfg() {
  nvbm::Config c;
  c.latency_mode = nvbm::LatencyMode::kModeled;
  return c;
}

std::vector<LocCode> uniform_leaves(int level) {
  std::vector<LocCode> out;
  const std::uint32_t side = 1u << level;
  for (std::uint32_t z = 0; z < side; ++z)
    for (std::uint32_t y = 0; y < side; ++y)
      for (std::uint32_t x = 0; x < side; ++x)
        out.push_back(LocCode::from_grid(level, x, y, z));
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Partition, SplitsEvenly) {
  const auto p = partition_leaves(uniform_leaves(2), 4);  // 64 leaves
  for (int r = 0; r < 4; ++r) EXPECT_EQ(p.rank_size(r), 16u);
  EXPECT_EQ(p.range_begin.front(), 0u);
  EXPECT_EQ(p.range_begin.back(), 64u);
}

TEST(Partition, OwnerOfIndexMatchesRanges) {
  const auto p = partition_leaves(uniform_leaves(2), 3);
  for (std::size_t i = 0; i < p.leaves.size(); ++i) {
    const int owner = p.owner_of_index(i);
    EXPECT_GE(i, p.range_begin[static_cast<std::size_t>(owner)]);
    EXPECT_LT(i, p.range_begin[static_cast<std::size_t>(owner) + 1]);
  }
}

TEST(Partition, OwnerOfCodeFindsCoveringLeaf) {
  const auto p = partition_leaves(uniform_leaves(1), 2);
  // A deep probe inside leaf (1;1,1,1) (the last in Morton order) must
  // belong to the rank owning that leaf.
  const auto probe = LocCode::from_grid(1, 1, 1, 1).child(7);
  EXPECT_EQ(p.owner_of(probe), p.owner_of_index(7));
  EXPECT_EQ(p.owner_of(LocCode::from_grid(1, 0, 0, 0)), 0);
}

TEST(Partition, SinglRankOwnsEverything) {
  const auto p = partition_leaves(uniform_leaves(2), 1);
  const auto stats = analyze_partition(p, {});
  EXPECT_EQ(stats.counts[0], 64u);
  EXPECT_EQ(stats.boundary[0], 0u);  // no remote neighbors
  EXPECT_DOUBLE_EQ(stats.imbalance, 1.0);
}

TEST(Partition, BoundaryDetectedAcrossRanks) {
  const auto p = partition_leaves(uniform_leaves(2), 4);
  const auto stats = analyze_partition(p, {});
  std::size_t total_boundary = 0;
  for (const auto b : stats.boundary) total_boundary += b;
  EXPECT_GT(total_boundary, 0u);
  // Not every cell is a boundary cell.
  EXPECT_LT(total_boundary, p.leaves.size());
}

TEST(Partition, MigrationCountedAgainstPreviousOwners) {
  const auto leaves = uniform_leaves(2);
  const auto p1 = partition_leaves(leaves, 4);
  const auto prev = owner_map(p1);
  // Same leaves, different rank count: owners shift.
  const auto p2 = partition_leaves(leaves, 8);
  const auto stats = analyze_partition(p2, prev);
  EXPECT_GT(stats.migrated, 0u);
  // Identical partition: zero migration.
  const auto stats_same = analyze_partition(p1, prev);
  EXPECT_EQ(stats_same.migrated, 0u);
}

/// A graded leaf set: octants near a sphere's surface refine to level 4,
/// the rest stop at level 1 or 2.
std::vector<LocCode> adaptive_leaves() {
  std::vector<LocCode> out;
  const auto grow = [&](const auto& self, const LocCode& c) -> void {
    const auto a = c.anchor();
    const double side = static_cast<double>(1u << (kMaxLevel - c.level()));
    const double full = static_cast<double>(1u << kMaxLevel);
    const double cx = (a.x + side / 2) / full - 0.4;
    const double cy = (a.y + side / 2) / full - 0.55;
    const double cz = (a.z + side / 2) / full - 0.5;
    const double r = std::sqrt(cx * cx + cy * cy + cz * cz);
    const bool near = std::abs(r - 0.3) < side / full;
    const int stop = near ? 4 : 1 + static_cast<int>(c.key() % 2);
    if (c.level() >= stop) {
      out.push_back(c);
      return;
    }
    for (int i = 0; i < kChildrenPerNode; ++i) self(self, c.child(i));
  };
  grow(grow, LocCode::root());
  std::sort(out.begin(), out.end());
  return out;
}

/// owner_of by linear scan: the covering leaf is the last with key <=
/// code's key (index 0 before the first leaf); its owner is the last rank
/// whose range starts at or before it.
int brute_owner(const Partition& p, const LocCode& code) {
  std::size_t idx = 0;
  for (std::size_t i = 0; i < p.leaves.size(); ++i)
    if (p.leaves[i].key() <= code.key()) idx = i;
  int owner = 0;
  for (int r = 0; r < p.procs; ++r)
    if (p.range_begin[static_cast<std::size_t>(r)] <= idx) owner = r;
  return owner;
}

TEST(Partition, SplitKeyOwnersMatchLinearScan) {
  const auto leaves = adaptive_leaves();
  ASSERT_GT(leaves.size(), 500u);
  std::set<int> levels;
  for (const auto& c : leaves) levels.insert(c.level());
  ASSERT_GE(levels.size(), 3u);  // genuinely graded, not a uniform grid
  static constexpr int kFaces[6][3] = {{1, 0, 0},  {-1, 0, 0}, {0, 1, 0},
                                       {0, -1, 0}, {0, 0, 1},  {0, 0, -1}};
  const auto prev = owner_map(partition_leaves(leaves, 7));
  // The second set lacks its first leaves (a hole at the curve's start,
  // as remove() leaves), so neighbor probes also land before the first
  // leaf, where the owner is index 0's.
  const std::vector<LocCode> holed(leaves.begin() + 9, leaves.end());
  for (const auto& set : {leaves, holed}) {
    for (const int procs : {1, 3, 16, static_cast<int>(set.size()) + 5}) {
      SCOPED_TRACE(testing::Message() << set.size() << " leaves, " << procs
                                      << " procs");
      const auto p = partition_leaves(set, procs);
      std::vector<std::size_t> counts(static_cast<std::size_t>(procs), 0);
      std::vector<std::size_t> boundary(static_cast<std::size_t>(procs), 0);
      std::size_t migrated = 0;
      for (std::size_t i = 0; i < set.size(); ++i) {
        const int owner = brute_owner(p, set[i]);
        ASSERT_EQ(p.owner_of(set[i]), owner);
        ASSERT_EQ(p.owner_of_index(i), owner);
        ++counts[static_cast<std::size_t>(owner)];
        if (prev.at(set[i]) != owner) ++migrated;
        bool ghost = false;
        for (const auto& f : kFaces) {
          LocCode n;
          if (!set[i].neighbor(f[0], f[1], f[2], n)) continue;
          const int n_owner = brute_owner(p, n);
          ASSERT_EQ(p.owner_of(n), n_owner);
          ghost = ghost || n_owner != owner;
        }
        if (ghost) ++boundary[static_cast<std::size_t>(owner)];
      }
      const LocCode origin = LocCode::from_key(0, kMaxLevel);
      EXPECT_EQ(p.owner_of(origin), brute_owner(p, origin));
      const auto stats = analyze_partition(p, prev);
      EXPECT_EQ(stats.counts, counts);
      EXPECT_EQ(stats.boundary, boundary);
      EXPECT_EQ(stats.migrated, migrated);
    }
  }
}

// ---------------------------------------------------------------------------
// ClusterSim scaling shapes
// ---------------------------------------------------------------------------

struct SimRun {
  double total_s;
  double partition_pct;
};

SimRun run_sim(int procs, double scale, int steps = 4) {
  nvbm::Device dev(512 << 20, dev_cfg());
  pmoctree::PmConfig pm;
  pm.dram_budget_bytes = 8 << 20;
  amr::PmOctreeBackend mesh(dev, pm);
  amr::DropletParams p;
  p.min_level = 2;
  p.max_level = 3;
  amr::DropletWorkload wl(p);
  ClusterConfig cfg;
  cfg.procs = procs;
  cfg.steps = steps;
  cfg.scale = scale;
  ClusterSim sim(cfg);
  const auto res = sim.run(mesh, wl);
  return {res.total_s, res.breakdown.percent("Partition")};
}

TEST(ClusterSim, WeakScalingTimeGrowsWithProcs) {
  // Weak scaling: per-rank elements constant => scale = procs.
  const auto p1 = run_sim(1, 1.0);
  const auto p64 = run_sim(64, 64.0);
  const auto p512 = run_sim(512, 512.0);
  EXPECT_GT(p64.total_s, p1.total_s);
  EXPECT_GT(p512.total_s, p64.total_s);
}

TEST(ClusterSim, PartitionShareGrowsWithProcs) {
  // Fig. 7: Partition 0% at 1 proc, grows to dominate at 1000.
  const auto p1 = run_sim(1, 1.0);
  const auto p64 = run_sim(64, 64.0);
  const auto p1000 = run_sim(1000, 1000.0);
  EXPECT_DOUBLE_EQ(p1.partition_pct, 0.0);
  EXPECT_GT(p64.partition_pct, 0.0);
  EXPECT_GT(p1000.partition_pct, p64.partition_pct);
}

TEST(ClusterSim, StrongScalingTimeShrinksWithProcs) {
  // Fixed global size (scale constant), more ranks => faster.
  const auto p8 = run_sim(8, 64.0);
  const auto p64 = run_sim(64, 64.0);
  EXPECT_LT(p64.total_s, p8.total_s);
}

TEST(ClusterSim, ReportsGlobalElements) {
  nvbm::Device dev(256 << 20, dev_cfg());
  amr::PmOctreeBackend mesh(dev, pmoctree::PmConfig{});
  amr::DropletParams p;
  p.min_level = 1;
  p.max_level = 3;
  amr::DropletWorkload wl(p);
  ClusterConfig cfg;
  cfg.procs = 10;
  cfg.steps = 2;
  cfg.scale = 100.0;
  ClusterSim sim(cfg);
  const auto res = sim.run(mesh, wl);
  EXPECT_EQ(res.real_leaves, mesh.leaf_count());
  EXPECT_DOUBLE_EQ(res.global_elements, 100.0 * res.real_leaves);
  EXPECT_EQ(res.step_seconds.size(), 2u);
  EXPECT_GE(res.max_imbalance, 1.0);
}

TEST(CommModel, CollectiveGrowsLogarithmically) {
  CommConfig c;
  EXPECT_DOUBLE_EQ(collective_time(c, 1, 1000), 0.0);
  const auto t2 = collective_time(c, 2, 1000);
  const auto t1024 = collective_time(c, 1024, 1000);
  EXPECT_NEAR(t1024 / t2, 10.0, 1e-9);
}

TEST(CommModel, PartitionTimeMatchesPaperGrowth) {
  // Calibration check: with fixed per-rank migration, the 6 -> 1000 proc
  // cost ratio should be roughly the paper's 6.4x (2.2s -> 14s per step).
  CommConfig c;
  const double t6 = partition_time(c, 6, 1e6, 150000, 3e-6, 160);
  const double t1000 = partition_time(c, 1000, 1e6, 150000, 3e-6, 160);
  EXPECT_GT(t1000 / t6, 4.0);
  EXPECT_LT(t1000 / t6, 9.0);
}

TEST(CommModel, BalanceCommImprovesWithFewerBoundaries) {
  CommConfig c;
  EXPECT_LT(balance_comm_time(c, 64, 100, 160),
            balance_comm_time(c, 64, 10000, 160));
  EXPECT_DOUBLE_EQ(balance_comm_time(c, 1, 10000, 160), 0.0);
}

}  // namespace
}  // namespace pmo::cluster
