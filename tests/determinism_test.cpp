// Determinism contract (DESIGN.md §7): modeled cluster-simulation results
// are bit-identical for every `threads` value — the execution layer may
// only change wall-clock. Runs the same multi-lane ClusterSim point with
// threads=1 and threads=8 and compares every modeled output: the
// ClusterResult fields, the telemetry counter/gauge deltas (histograms
// are wall-clock span durations, excluded by contract) and the lane-0
// device's wear heatmap.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace pmo {
namespace {

struct RunOutput {
  cluster::ClusterResult result;
  std::map<std::string, std::uint64_t> counter_delta;
  std::map<std::string, double> gauges;  ///< post-run values (nvbm.* etc.)
  std::string wear0;                     ///< lane-0 wear heatmap JSON
};

RunOutput run_once(int threads) {
  using bench::Backend;
  using bench::Bundle;
  auto& reg = telemetry::Registry::global();
  const auto before = reg.snapshot();

  // Workloads must outlive the bundles' feature hooks (same ordering rule
  // as bench_common::run_point).
  std::vector<std::shared_ptr<amr::DropletWorkload>> workloads;
  std::vector<std::shared_ptr<Bundle>> bundles;

  cluster::ClusterConfig cfg;
  cfg.procs = 6;
  cfg.steps = 3;
  cfg.scale = 24.0;
  cfg.threads = threads;
  cfg.measure_ranks = 3;
  cluster::ClusterSim sim(cfg);

  amr::DropletParams params;
  params.min_level = 2;
  params.max_level = 4;
  params.dt = 0.1;

  const auto factory = [&](int /*rank*/, const amr::DropletParams& p)
      -> cluster::RankInstance {
    // Default PmConfig: hot-node cache ON (4 MiB) — this test is also the
    // contract check that cache hits stay deterministic across thread
    // counts.
    auto bundle = std::make_shared<Bundle>(
        bench::make_bundle(Backend::kPm, std::size_t{64} << 20));
    auto wl = std::make_shared<amr::DropletWorkload>(p);
    bench::register_droplet_feature(*bundle, *wl);
    workloads.push_back(wl);
    bundles.push_back(bundle);
    return {cluster::RankBackend(bundle, bundle->mesh.get()), wl};
  };

  RunOutput out;
  out.result = sim.run(factory, params);
  out.wear0 = bundles.front()->device->wear_heatmap_json().dump();
  // Snapshot while the bundles are alive so the nvbm.* source fills still
  // run; the delta vs `before` isolates this run's metrics.
  const auto after = reg.snapshot();
  const auto delta = after.delta(before);
  out.counter_delta = delta.counters;
  out.gauges = delta.gauges;
  return out;
}

void expect_same_modeled_outputs(const RunOutput& a, const RunOutput& b) {
  // ClusterResult: every modeled field, bit-exact (EXPECT_EQ on double is
  // exact equality — that is the contract under test).
  EXPECT_EQ(a.result.total_s, b.result.total_s);
  EXPECT_EQ(a.result.real_leaves, b.result.real_leaves);
  EXPECT_EQ(a.result.global_elements, b.result.global_elements);
  EXPECT_EQ(a.result.max_imbalance, b.result.max_imbalance);
  EXPECT_EQ(a.result.total_migrated, b.result.total_migrated);
  EXPECT_EQ(a.result.measured_lanes, b.result.measured_lanes);
  ASSERT_EQ(a.result.step_seconds.size(), b.result.step_seconds.size());
  for (std::size_t i = 0; i < a.result.step_seconds.size(); ++i) {
    EXPECT_EQ(a.result.step_seconds[i], b.result.step_seconds[i])
        << "step " << i;
  }
  auto buckets_a = a.result.breakdown.buckets();
  auto buckets_b = b.result.breakdown.buckets();
  std::sort(buckets_a.begin(), buckets_a.end());
  std::sort(buckets_b.begin(), buckets_b.end());
  ASSERT_EQ(buckets_a, buckets_b);
  for (const auto& name : buckets_a) {
    EXPECT_EQ(a.result.breakdown.seconds(name),
              b.result.breakdown.seconds(name))
        << "breakdown bucket " << name;
  }

  // Telemetry counters: modeled event counts, deterministic by contract —
  // every one of them, pmoctree.cache.* included.
  ASSERT_EQ(a.counter_delta.size(), b.counter_delta.size());
  for (const auto& [name, value] : a.counter_delta) {
    const auto it = b.counter_delta.find(name);
    ASSERT_NE(it, b.counter_delta.end()) << "counter " << name;
    EXPECT_EQ(value, it->second) << "counter " << name;
  }
  // Gauges (nvbm.* device state, cluster gauges): source fills run in
  // registration order, so the last-registered lane is the last writer in
  // both runs; its modeled device state is deterministic, so identical.
  ASSERT_EQ(a.gauges.size(), b.gauges.size());
  for (const auto& [name, value] : a.gauges) {
    const auto it = b.gauges.find(name);
    ASSERT_NE(it, b.gauges.end()) << "gauge " << name;
    EXPECT_EQ(value, it->second) << "gauge " << name;
  }

  // Device wear: per-line modeled write counts of the canonical lane.
  EXPECT_EQ(a.wear0, b.wear0);
}

TEST(Determinism, ModeledResultsBitIdenticalAcrossThreadCounts) {
  const RunOutput t1 = run_once(1);
  const RunOutput t8 = run_once(8);
  expect_same_modeled_outputs(t1, t8);
}

// ---------------------------------------------------------------------------
// Solve determinism (DESIGN.md §12): the Jacobi gather's results are
// bit-identical across the chunk-dispatch thread count — a fixed face
// order and fixed chunking leave no pool size any room to move a bit.
// ---------------------------------------------------------------------------

/// Leaf fields after a short droplet run, as raw bit patterns keyed by
/// (key, level) — bit_cast so -0.0 vs +0.0 or NaN payload drift fails.
std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
run_gather_droplet(int threads) {
  nvbm::Device dev(std::size_t{128} << 20, {});
  pmoctree::PmConfig pm;
  pm.dram_budget_bytes = std::size_t{8} << 20;
  amr::PmOctreeBackend mesh(dev, pm);
  amr::DropletParams params;
  params.min_level = 2;
  params.max_level = 4;
  params.dt = 0.05;
  amr::DropletWorkload wl(params);
  exec::ThreadPool pool(threads);
  wl.set_exec(&pool);
  wl.initialize(mesh);
  for (int s = 0; s < 3; ++s) wl.step(mesh, s);

  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> out;
  mesh.visit_leaves([&](const LocCode& c, const CellData& d) {
    out[c.key() | (static_cast<std::uint64_t>(c.level()) << 60)] = {
        std::bit_cast<std::uint64_t>(d.vof),
        std::bit_cast<std::uint64_t>(d.tracer)};
  });
  return out;
}

TEST(Determinism, GatherBitIdenticalAcrossThreads) {
  const auto base = run_gather_droplet(1);
  ASSERT_GT(base.size(), 100u);
  EXPECT_EQ(base, run_gather_droplet(4)) << "threads moved bits";
}

// ---------------------------------------------------------------------------
// Persist-path determinism (DESIGN.md §9): the persisted NVBM image and
// every modeled counter are a pure function of the op sequence — two
// identical runs, each on its own device and heap, must agree byte for
// byte and count for count.
// ---------------------------------------------------------------------------

struct TreeRunOutput {
  std::vector<std::byte> image;          ///< full NVBM byte image
  std::uint64_t dram_reads = 0, dram_writes = 0, dram_ns = 0;
  std::uint64_t dev_reads = 0, dev_writes = 0;
  std::uint64_t dev_lines_read = 0, dev_lines_written = 0;
  std::uint64_t dev_flush_spans = 0, dev_modeled_ns = 0;
  std::vector<pmoctree::PersistStats> persists;
};

TreeRunOutput run_tree(bool all_nvbm = false) {
  nvbm::Device dev(std::size_t{64} << 20, bench::device_config());
  nvbm::Heap heap(dev);
  pmoctree::PmConfig pm;
  // all_nvbm places every octant in NVBM: no C0 twins, every mutation
  // copies on write in the node store, so the image compare covers the
  // private-NVBM merge path instead of the DRAM-twin one.
  pm.dram_budget_bytes = all_nvbm ? 0 : std::size_t{32} << 20;
  auto tree = pmoctree::PmOctree::create(heap, pm);

  TreeRunOutput out;
  // Uniform level 3 (512 leaves), then scattered updates plus a few
  // structural edits, so later persists prune most of the tree.
  for (int l = 0; l < 3; ++l)
    tree.refine_where([](const LocCode&, const CellData&) { return true; });
  out.persists.push_back(tree.persist());
  for (int phase = 0; phase < 3; ++phase) {
    CellData d;
    // Scattered small-fraction updates (x < 6 keeps them clear of the
    // structural sites below).
    for (int i = 0; i < 16; ++i) {
      d.vof = 0.01 * i + phase;
      tree.update(LocCode::from_grid(3, static_cast<std::uint32_t>(i % 6),
                                     static_cast<std::uint32_t>((i * 5) % 8),
                                     static_cast<std::uint32_t>((i * 7) % 8)),
                  d);
    }
    if (phase == 1) {
      tree.refine(LocCode::from_grid(3, 6, 6, 1));
      tree.refine(LocCode::from_grid(3, 7, 2, 5));
    }
    if (phase == 2) {
      tree.coarsen(LocCode::from_grid(3, 6, 6, 1));
      tree.refine(LocCode::from_grid(3, 6, 0, 0));
    }
    out.persists.push_back(tree.persist());
  }
  if (all_nvbm) {
    // Quiesce with pinpoint updates: each persist freshens one root-leaf
    // path and shares every sibling subtree with the previous version.
    for (int r = 0; r < 4; ++r) {
      CellData d;
      d.vof = 0.75 + 0.01 * r;
      tree.update(LocCode::from_grid(3, static_cast<std::uint32_t>(r * 2),
                                     static_cast<std::uint32_t>(r * 2), 3),
                  d);
      out.persists.push_back(tree.persist());
    }
  }

  const std::byte* bytes = dev.raw(0, dev.capacity());
  out.image.assign(bytes, bytes + dev.capacity());
  const auto& dc = tree.dram_counters();
  out.dram_reads = dc.reads;
  out.dram_writes = dc.writes;
  out.dram_ns = dc.modeled_ns();
  const auto& c = dev.counters();
  out.dev_reads = c.reads;
  out.dev_writes = c.writes;
  out.dev_lines_read = c.lines_read;
  out.dev_lines_written = c.lines_written;
  out.dev_flush_spans = c.flush_spans;
  out.dev_modeled_ns = c.modeled_ns();
  return out;
}

void expect_same_stats(const TreeRunOutput& a, const TreeRunOutput& b) {
  ASSERT_EQ(a.persists.size(), b.persists.size());
  for (std::size_t i = 0; i < a.persists.size(); ++i) {
    EXPECT_EQ(a.persists[i].visits, b.persists[i].visits) << "persist " << i;
    EXPECT_EQ(a.persists[i].pruned_subtrees, b.persists[i].pruned_subtrees)
        << "persist " << i;
    EXPECT_EQ(a.persists[i].merged_from_dram, b.persists[i].merged_from_dram)
        << "persist " << i;
    EXPECT_EQ(a.persists[i].nodes_total, b.persists[i].nodes_total)
        << "persist " << i;
  }
  EXPECT_EQ(a.dram_reads, b.dram_reads);
  EXPECT_EQ(a.dram_writes, b.dram_writes);
  EXPECT_EQ(a.dram_ns, b.dram_ns);
  EXPECT_EQ(a.dev_reads, b.dev_reads);
  EXPECT_EQ(a.dev_writes, b.dev_writes);
  EXPECT_EQ(a.dev_lines_read, b.dev_lines_read);
  EXPECT_EQ(a.dev_lines_written, b.dev_lines_written);
  EXPECT_EQ(a.dev_flush_spans, b.dev_flush_spans);
  EXPECT_EQ(a.dev_modeled_ns, b.dev_modeled_ns);
}

TEST(Determinism, PersistedImageBitIdenticalAcrossRuns) {
  const auto a = run_tree();
  const auto b = run_tree();
  // Pruning must have engaged, or the later persists walked everything.
  std::size_t pruned = 0;
  for (const auto& s : a.persists) pruned += s.pruned_subtrees;
  EXPECT_GT(pruned, 0u);
  expect_same_stats(a, b);
  EXPECT_TRUE(a.image == b.image) << "NVBM image diverged across runs";
}

TEST(Determinism, AllNvbmImageBitIdenticalAcrossRuns) {
  // Same contract as above with every octant in NVBM: the CoW copies, the
  // relinked private parents and every modeled counter must repeat
  // exactly.
  const auto a = run_tree(/*all_nvbm=*/true);
  const auto b = run_tree(/*all_nvbm=*/true);
  expect_same_stats(a, b);
  EXPECT_TRUE(a.image == b.image) << "all-NVBM image diverged";
}

TEST(Determinism, SingleLaneLegacyOverloadMatchesFactoryPath) {
  // measure_ranks=1 through the factory must reproduce the legacy
  // single-backend overload exactly (same lane-0 measurement path).
  using bench::Backend;
  auto run = [](bool legacy) {
    auto bundle = bench::make_bundle(Backend::kPm, std::size_t{64} << 20);
    amr::DropletWorkload wl{amr::DropletParams{}};
    bench::register_droplet_feature(bundle, wl);
    cluster::ClusterConfig cfg;
    cfg.procs = 4;
    cfg.steps = 2;
    cfg.scale = 10.0;
    cfg.threads = 2;
    cfg.measure_ranks = 1;
    cluster::ClusterSim sim(cfg);
    if (legacy) return sim.run(*bundle.mesh, wl);
    // Factory path reusing the same pre-built lane.
    amr::DropletParams params;  // defaults, same as wl above
    auto wl2 = std::make_shared<amr::DropletWorkload>(params);
    auto bundle2 = std::make_shared<bench::Bundle>(
        bench::make_bundle(Backend::kPm, std::size_t{64} << 20));
    bench::register_droplet_feature(*bundle2, *wl2);
    return sim.run(
        [&](int, const amr::DropletParams&) -> cluster::RankInstance {
          return {cluster::RankBackend(bundle2, bundle2->mesh.get()), wl2};
        },
        params);
  };
  const auto legacy = run(true);
  const auto factory = run(false);
  EXPECT_EQ(legacy.total_s, factory.total_s);
  EXPECT_EQ(legacy.real_leaves, factory.real_leaves);
  ASSERT_EQ(legacy.step_seconds.size(), factory.step_seconds.size());
  for (std::size_t i = 0; i < legacy.step_seconds.size(); ++i) {
    EXPECT_EQ(legacy.step_seconds[i], factory.step_seconds[i]);
  }
}

}  // namespace
}  // namespace pmo
