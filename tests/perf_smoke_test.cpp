// perf_smoke gate (ctest label `perf_smoke`): deterministic, counter-based
// performance regressions — no wall-clock measurement, so the gate is
// stable on loaded CI machines. The tentpole check: the hot-node cache
// must cut NVBM line reads on a small-scale droplet workload to at most
// 60% of the cache-off baseline (the acceptance bar is a 40% drop at full
// bench scale; this 5%-scale replica runs in seconds). The cache is
// read-path only, so everything modeled except read traffic must stay
// bit-identical — that is asserted too, so a "speedup" obtained by
// changing semantics fails the gate.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "amr/droplet.hpp"
#include "amr/pm_backend.hpp"
#include "pmoctree/api.hpp"
#include "telemetry/telemetry.hpp"

namespace pmo {
namespace {

struct Outcome {
  std::map<std::uint64_t, double> leaves;
  std::uint64_t lines_read = 0;      ///< real NVBM medium traffic
  std::uint64_t lines_written = 0;
  std::uint64_t nvbm_writes = 0;
  std::uint64_t cached_reads = 0;    ///< DRAM-latency hits (cache channel)
};

Outcome run_droplet(std::size_t node_cache_bytes) {
  nvbm::Device dev(std::size_t{128} << 20, {});
  pmoctree::PmConfig pm;
  // Small C0 budget so most octants live on NVBM — the regime the cache
  // targets (fig07/fig10 run the same shape at ~20x the leaf count).
  pm.dram_budget_bytes = 96 * sizeof(pmoctree::PNode);
  pm.node_cache_bytes = node_cache_bytes;
  amr::PmOctreeBackend mesh(dev, pm);

  amr::DropletParams params;
  params.min_level = 2;
  params.max_level = 4;
  params.dt = 0.05;
  amr::DropletWorkload wl(params);
  mesh.register_feature([&wl](const LocCode& c, const CellData& d) {
    return wl.hot_feature(c, d);
  });

  wl.initialize(mesh);
  for (int s = 0; s < 4; ++s) wl.step(mesh, s);

  Outcome out;
  mesh.visit_leaves([&](const LocCode& c, const CellData& d) {
    out.leaves[c.key() | (static_cast<std::uint64_t>(c.level()) << 60)] =
        d.vof;
  });
  const auto& ctr = dev.counters();
  out.lines_read = ctr.lines_read;
  out.lines_written = ctr.lines_written;
  out.nvbm_writes = ctr.writes;
  out.cached_reads = ctr.cached_reads;
  return out;
}

TEST(PerfSmoke, NodeCacheCutsNvbmLineReadsByAtLeast40Percent) {
  const Outcome cached = run_droplet(std::size_t{4} << 20);
  const Outcome uncached = run_droplet(0);

  // The gate: cached medium traffic <= 60% of the baseline.
  ASSERT_GT(uncached.lines_read, 0u);
  EXPECT_LE(cached.lines_read * 100, uncached.lines_read * 60)
      << "cached lines_read " << cached.lines_read << " vs uncached "
      << uncached.lines_read << " (ratio "
      << (100.0 * static_cast<double>(cached.lines_read) /
          static_cast<double>(uncached.lines_read))
      << "%)";
  // The hits really went through the DRAM-latency channel.
  EXPECT_GT(cached.cached_reads, 0u);
  EXPECT_EQ(uncached.cached_reads, 0u);

  // Read-path only: identical mesh, identical writes.
  EXPECT_EQ(cached.leaves, uncached.leaves);
  EXPECT_EQ(cached.lines_written, uncached.lines_written);
  EXPECT_EQ(cached.nvbm_writes, uncached.nvbm_writes);
}

// ---------------------------------------------------------------------------
// Solve gates: modeled neighbor-lookup work of the face-neighbor index
// against the per-face-find arm, and bit-identical fields between the two
// arms, on the fig07 droplet configuration (min_level=3, max_level=5,
// dt=0.12).
// ---------------------------------------------------------------------------

struct SolveOutcome {
  /// (key|level) -> (vof bits, tracer bits): bit-exact field comparison.
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> leaves;
  std::uint64_t find_probes = 0;   ///< legacy per-face-find inspections
  std::uint64_t build_probes = 0;  ///< neighbor-index build inspections
  std::uint64_t builds = 0;
  std::uint64_t reuses = 0;
};

SolveOutcome run_fig07_droplet(bool neighbor_index) {
  auto& reg = telemetry::Registry::global();
  const std::uint64_t find0 = reg.counter("amr.chunk.find_probes").value();
  const std::uint64_t build0 =
      reg.counter("amr.neighbor.build_probes").value();
  const std::uint64_t builds0 = reg.counter("amr.neighbor.builds").value();
  const std::uint64_t reuses0 = reg.counter("amr.neighbor.reuses").value();

  nvbm::Device dev(std::size_t{256} << 20, {});
  pmoctree::PmConfig pm;
  pm.dram_budget_bytes = std::size_t{16} << 20;
  amr::PmOctreeBackend mesh(dev, pm);

  amr::DropletParams params;
  params.min_level = 3;
  params.max_level = 5;
  params.dt = 0.12;
  params.neighbor_index = neighbor_index;
  amr::DropletWorkload wl(params);
  wl.initialize(mesh);
  for (int s = 0; s < 3; ++s) wl.step(mesh, s);

  SolveOutcome out;
  mesh.visit_leaves([&](const LocCode& c, const CellData& d) {
    out.leaves[c.key() | (static_cast<std::uint64_t>(c.level()) << 60)] = {
        std::bit_cast<std::uint64_t>(d.vof),
        std::bit_cast<std::uint64_t>(d.tracer)};
  });
  out.find_probes = reg.counter("amr.chunk.find_probes").value() - find0;
  out.build_probes =
      reg.counter("amr.neighbor.build_probes").value() - build0;
  out.builds = reg.counter("amr.neighbor.builds").value() - builds0;
  out.reuses = reg.counter("amr.neighbor.reuses").value() - reuses0;
  return out;
}

TEST(PerfSmoke, NeighborIndexCutsSolveLookupWorkTo25Percent) {
  // The gate: with the face-neighbor index on, the solve phase's modeled
  // neighbor-lookup work (index-build candidate inspections) is at most
  // 25% of the per-face LeafChunk::find baseline's probe count — the
  // batched build amortizes one hinted pass across all solver sweeps.
  const SolveOutcome on = run_fig07_droplet(true);
  const SolveOutcome off = run_fig07_droplet(false);

  ASSERT_GT(off.find_probes, 0u);
  ASSERT_GT(on.builds, 0u);
  EXPECT_EQ(on.find_probes, 0u);  // the indexed arm never calls find
  EXPECT_LE(on.build_probes * 4, off.find_probes)
      << "build probes " << on.build_probes << " vs find baseline "
      << off.find_probes << " (ratio "
      << (100.0 * static_cast<double>(on.build_probes) /
          static_cast<double>(off.find_probes))
      << "%)";
  // The index is actually reused across Jacobi sweeps, not rebuilt.
  EXPECT_GT(on.reuses, 0u);
  // Fast path only — the fields are bit-identical either way.
  EXPECT_EQ(on.leaves, off.leaves);
  std::printf("[ info ] neighbor-index build probes %llu vs find baseline "
              "%llu (%.1f%%), builds %llu reuses %llu\n",
              static_cast<unsigned long long>(on.build_probes),
              static_cast<unsigned long long>(off.find_probes),
              100.0 * static_cast<double>(on.build_probes) /
                  static_cast<double>(off.find_probes),
              static_cast<unsigned long long>(on.builds),
              static_cast<unsigned long long>(on.reuses));
}

TEST(PerfSmoke, IncrementalPersistVisitsAtMost10PercentOfNodes) {
  // The dirty-subtree pruning gate: after a full persist, mutating at most
  // 1% of the leaves must let the next merge skip all the clean subtrees —
  // persist.visits (octants the merge actually touches) stays at or below
  // 10% of nodes_total. Counter-based, so the gate is exact and stable.
  nvbm::Device dev(std::size_t{256} << 20, {});
  nvbm::Heap heap(dev);
  pmoctree::PmConfig pm;
  pm.dram_budget_bytes = std::size_t{64} << 20;  // all of C0 stays in DRAM
  auto tree = pmoctree::PmOctree::create(heap, pm);
  for (int l = 0; l < 4; ++l)
    tree.refine_where([](const LocCode&, const CellData&) { return true; });
  tree.persist();

  std::vector<LocCode> leaves;
  tree.for_each_leaf(
      [&](const LocCode& c, const CellData&) { leaves.push_back(c); });
  ASSERT_GE(leaves.size(), 1000u);  // level 4 uniform: 4096 leaves
  const std::size_t touched = leaves.size() / 100;  // exactly 1%
  ASSERT_GT(touched, 0u);
  for (std::size_t i = 0; i < touched; ++i) {
    CellData d;
    d.vof = 0.25 + 0.001 * static_cast<double>(i);
    tree.update(leaves[i * (leaves.size() / touched)], d);
  }

  const auto stats = tree.persist();
  ASSERT_GT(stats.nodes_total, 0u);
  EXPECT_GT(stats.pruned_subtrees, 0u);
  EXPECT_LE(stats.visits * 100, stats.nodes_total * 10)
      << "incremental persist visited " << stats.visits << " of "
      << stats.nodes_total << " octants ("
      << (100.0 * static_cast<double>(stats.visits) /
          static_cast<double>(stats.nodes_total))
      << "%)";
}

}  // namespace
}  // namespace pmo
