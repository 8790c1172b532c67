// Shared plumbing for the figure-reproduction benches.
//
// Every bench prints (a) the Table 2 device parameters it models, (b) the
// workload scale, and (c) a paper-style results table. Scales default to
// laptop-size meshes; set PMOCTREE_BENCH_SCALE=<float> to enlarge the
// *real* workload (the cluster simulator's `scale` handles the rest).
#pragma once

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "amr/droplet.hpp"
#include "amr/pm_backend.hpp"
#include "baseline/etree_backend.hpp"
#include "baseline/incore_backend.hpp"
#include "cluster/cluster_sim.hpp"
#include "common/stats.hpp"
#include "exec/pool.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace pmo::bench {

inline double bench_scale() {
  const char* env = std::getenv("PMOCTREE_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

/// Set by BenchReport when the binary was invoked with `--threads N`
/// (flag beats environment).
inline int& bench_threads_override() {
  static int v = 0;
  return v;
}

/// Measurement-phase thread count: `--threads N` flag >
/// PMOCTREE_BENCH_THREADS env > hardware_concurrency. Only wall-clock
/// depends on it — modeled results are bit-identical across values
/// (ClusterSim's determinism contract), which is what makes the fig06
/// threads=1 vs threads=N JSON comparison meaningful.
inline int bench_threads() {
  if (bench_threads_override() > 0) return bench_threads_override();
  if (const char* env = std::getenv("PMOCTREE_BENCH_THREADS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return exec::hardware_threads();
}

/// Set by BenchReport when the binary was invoked with `--node-cache
/// <bytes|off>` (flag beats environment). -1 = not given.
inline long long& bench_node_cache_override() {
  static long long v = -1;
  return v;
}

/// Resolved node-cache override: `--node-cache` flag >
/// PMOCTREE_BENCH_NODE_CACHE env ("off" or a byte count). -1 when neither
/// is present (PmConfig's default budget then applies).
inline long long bench_node_cache_env() {
  if (bench_node_cache_override() >= 0) return bench_node_cache_override();
  if (const char* env = std::getenv("PMOCTREE_BENCH_NODE_CACHE")) {
    if (std::string(env) == "off") return 0;
    const long long v = std::atoll(env);
    if (v > 0) return v;
  }
  return -1;
}

/// Effective hot-node-cache budget (bytes; 0 = cache off) the PM bundles
/// of this bench run with. Recorded in the JSON config block.
inline std::size_t bench_node_cache() {
  const long long v = bench_node_cache_env();
  return v >= 0 ? static_cast<std::size_t>(v)
                : pmoctree::PmConfig{}.node_cache_bytes;
}

inline nvbm::Config device_config() {
  nvbm::Config c;  // Table 2 defaults, modeled latency
  c.latency_mode = nvbm::LatencyMode::kModeled;
  return c;
}

inline void print_table2_header(const char* title) {
  const nvbm::Config c = device_config();
  std::printf("=== %s ===\n", title);
  std::printf("device model (Table 2): DRAM %lu/%lu ns, NVBM %lu/%lu ns "
              "(read/write per %zu B line)\n",
              static_cast<unsigned long>(c.dram_read_ns),
              static_cast<unsigned long>(c.dram_write_ns),
              static_cast<unsigned long>(c.read_ns),
              static_cast<unsigned long>(c.write_ns), c.cache_line);
}

enum class Backend { kPm, kInCore, kEtree };

inline const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kPm: return "PM-octree";
    case Backend::kInCore: return "in-core-octree";
    case Backend::kEtree: return "out-of-core-octree";
  }
  return "?";
}

/// A backend bundle owning its devices (order matters for destruction).
/// `source` keeps the device registered as a pull-mode telemetry source:
/// every registry snapshot republishes its access/wear counters under
/// "nvbm.*". On bundle destruction the handle unregisters the device AND
/// drops the published "nvbm." gauges, so back-to-back bundles in one
/// process never double-report a dead device's last values.
/// `wear_section` keeps the device's wear heatmap in trace files / bench
/// reports; it freezes the final heatmap when the bundle dies, so even a
/// scoped bundle (sec56's scenarios) shows up in the end-of-run export.
struct Bundle {
  std::unique_ptr<nvbm::Device> device;
  std::unique_ptr<amr::MeshBackend> mesh;
  amr::PmOctreeBackend* pm = nullptr;  // set when the mesh is PM-octree
  telemetry::Registry::Source source;
  telemetry::trace::Section wear_section;
};

/// Per-backend knobs for make_bundle. Only the field matching the chosen
/// backend is consulted.
struct BundleOpts {
  pmoctree::PmConfig pm;        ///< Backend::kPm
  int snapshot_interval = 10;   ///< Backend::kInCore
  int cache_pages = 16;         ///< Backend::kEtree: small buffer pool —
                                ///< oversizing would hide the page I/O the
                                ///< paper measures
};

/// The one place benches create device+backend pairs: allocates the
/// emulated NVBM device (Table 2 config), attaches the requested mesh
/// backend, and registers the device with the global telemetry registry.
inline Bundle make_bundle(Backend kind, std::size_t capacity,
                          const BundleOpts& opts = {}) {
  Bundle b;
  b.device = std::make_unique<nvbm::Device>(capacity, device_config());
  switch (kind) {
    case Backend::kPm: {
      pmoctree::PmConfig pm = opts.pm;
      if (const long long nc = bench_node_cache_env(); nc >= 0)
        pm.node_cache_bytes = static_cast<std::size_t>(nc);
      auto mesh = std::make_unique<amr::PmOctreeBackend>(*b.device, pm);
      b.pm = mesh.get();
      b.mesh = std::move(mesh);
      break;
    }
    case Backend::kInCore: {
      baseline::InCoreConfig cfg;
      cfg.snapshot_interval = opts.snapshot_interval;
      b.mesh = std::make_unique<baseline::InCoreBackend>(*b.device, cfg);
      break;
    }
    case Backend::kEtree: {
      baseline::EtreeConfig cfg;
      cfg.cache_pages = opts.cache_pages;
      b.mesh = std::make_unique<baseline::EtreeBackend>(*b.device, cfg);
      break;
    }
  }
  nvbm::Device* dev = b.device.get();
  b.source = telemetry::Registry::global().register_source(
      [dev](telemetry::Registry& reg) { dev->publish(reg, "nvbm"); },
      [] { telemetry::Registry::global().drop_gauges("nvbm."); });
  static std::atomic<int> bundle_seq{0};
  b.wear_section = telemetry::trace::register_section(
      "nvbm" + std::to_string(bundle_seq.fetch_add(1)),
      [dev] { return dev->wear_heatmap_json(); });
  return b;
}

inline Bundle make_pm(std::size_t nvbm_capacity, pmoctree::PmConfig pm) {
  BundleOpts opts;
  opts.pm = pm;
  return make_bundle(Backend::kPm, nvbm_capacity, opts);
}

inline Bundle make_incore(std::size_t snapshot_capacity,
                          int snapshot_interval = 10) {
  BundleOpts opts;
  opts.snapshot_interval = snapshot_interval;
  return make_bundle(Backend::kInCore, snapshot_capacity, opts);
}

inline Bundle make_etree(std::size_t capacity) {
  return make_bundle(Backend::kEtree, capacity);
}

/// Registers the droplet workload's hot-spot predicate as the PM-octree
/// feature function (§3.3 integration: the application hands its
/// refinement/solver predicates to the library).
inline void register_droplet_feature(Bundle& b, amr::DropletWorkload& wl) {
  if (b.pm == nullptr) return;
  b.pm->register_feature([&wl](const LocCode& code, const CellData& d) {
    return wl.hot_feature(code, d);
  });
}

/// Formats a count like the paper's element labels (1.2M, 1077M, ...).
inline std::string elems(double n) { return TablePrinter::human_count(n); }

/// Estimates the real-mesh leaf count a workload produces (one cheap
/// DRAM-only probe run: initialize + 1 step).
inline std::size_t probe_leaves(const amr::DropletParams& params) {
  auto bundle = make_incore(std::size_t{256} << 20, /*interval=*/1000);
  amr::DropletWorkload wl(params);
  wl.initialize(*bundle.mesh);
  wl.step(*bundle.mesh, 0, /*persist=*/false);
  return bundle.mesh->leaf_count();
}

/// Real-run DRAM budget that models a node whose C0 tree can hold
/// `c0_octants_per_node` octants while each rank owns `per_rank_elements`
/// target octants: the real run (which holds the whole global mesh) gets
/// the same C0-fit *fraction*.
inline std::size_t budget_for(double c0_octants_per_node,
                              double per_rank_elements,
                              std::size_t real_leaves) {
  const double fraction =
      std::min(1.0, c0_octants_per_node / per_rank_elements);
  const double nodes = static_cast<double>(real_leaves) * 8.0 / 7.0;
  const double bytes = fraction * nodes * sizeof(pmoctree::PNode) * 1.3;
  return std::max<std::size_t>(64 * sizeof(pmoctree::PNode),
                               static_cast<std::size_t>(bytes));
}

struct PointOpts {
  double c0_octants_per_node = 1.5e5;
  bool enable_transform = true;
  /// Measurement lanes per point (ClusterConfig::measure_ranks). 1 keeps
  /// the original single-measurement cost; the scaling figures raise it
  /// so lane-level parallelism has real work to spread across threads.
  int measure_ranks = 1;
};

struct PointResult {
  cluster::ClusterResult cluster;
  std::uint64_t nvbm_writes = 0;   ///< real-run NVBM write ops
  std::uint64_t nvbm_lines_read = 0;   ///< real-run NVBM medium line reads
  std::uint64_t nvbm_lines_written = 0;  ///< real-run NVBM medium line writes
  std::uint64_t nvbm_cached_reads = 0;  ///< node-cache hits (DRAM latency)
  std::size_t eviction_merges = 0;  ///< real-run C0->C1 pressure merges
  std::size_t dram_budget_bytes = 0;
};

/// Runs one cluster-simulation point: `procs` ranks, `target_global`
/// elements in total, on the given backend. Measurement runs
/// opts.measure_ranks lanes (one bundle each) on bench_threads() worker
/// threads; reported device-side numbers (nvbm_writes, eviction_merges)
/// come from the canonical lane 0.
inline PointResult run_point(Backend kind, int procs, double target_global,
                             int steps, const amr::DropletParams& params,
                             const PointOpts& opts,
                             std::size_t real_leaves) {
  const double scale =
      target_global / static_cast<double>(std::max<std::size_t>(
                          1, real_leaves));
  PointResult out;
  BundleOpts bopts;
  if (kind == Backend::kPm) {
    bopts.pm.dram_budget_bytes = budget_for(
        opts.c0_octants_per_node, target_global / procs, real_leaves);
    bopts.pm.enable_transform = opts.enable_transform;
    out.dram_budget_bytes = bopts.pm.dram_budget_bytes;
  }
  // Declared before `bundles` so workloads outlive the PM feature hooks
  // (register_droplet_feature captures the workload by reference).
  std::vector<std::shared_ptr<amr::DropletWorkload>> workloads;
  std::vector<std::shared_ptr<Bundle>> bundles;
  cluster::ClusterConfig cfg;
  cfg.procs = procs;
  cfg.steps = steps;
  cfg.scale = scale;
  cfg.threads = bench_threads();
  cfg.measure_ranks = opts.measure_ranks;
  cluster::ClusterSim sim(cfg);
  const auto factory = [&](int /*rank*/, const amr::DropletParams& p)
      -> cluster::RankInstance {
    auto bundle = std::make_shared<Bundle>(
        make_bundle(kind, std::size_t{256} << 20, bopts));
    auto wl = std::make_shared<amr::DropletWorkload>(p);
    register_droplet_feature(*bundle, *wl);
    workloads.push_back(wl);
    bundles.push_back(bundle);
    return {cluster::RankBackend(bundle, bundle->mesh.get()), wl};
  };
  out.cluster = sim.run(factory, params);
  out.nvbm_writes = bundles.front()->mesh->nvbm_writes();
  out.nvbm_lines_read = bundles.front()->device->counters().lines_read;
  out.nvbm_lines_written = bundles.front()->device->counters().lines_written;
  out.nvbm_cached_reads = bundles.front()->device->counters().cached_reads;
  if (bundles.front()->pm != nullptr) {
    out.eviction_merges = bundles.front()->pm->tree().eviction_merges();
  }
  return out;
}

}  // namespace pmo::bench
