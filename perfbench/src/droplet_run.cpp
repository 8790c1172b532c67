// droplet_dram and droplet_nvbm: the droplet at max_level 7 stepping on a
// PM-octree, once with a C0 budget that holds the whole tree and a pool
// of every core (the DRAM regime: balance, neighbor index, gather, merge
// persist and partition do the work), once single-threaded with a 1 MiB
// C0 budget, about a quarter of what the octants need (the paper's memory
// extension regime: descents, node cache, eviction merges and transform).
// After each window a closed-loop reader queries the final durable
// snapshot.
#include <optional>

#include "baseline/incore_backend.hpp"
#include "exec/pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace pmo;

struct DropletScale {
  int max_level;
  int warmup;   ///< set-up steps; the first persists the whole tree
  int window;   ///< measured steps
  int queries;  ///< closed-loop snapshot queries after the window
  std::size_t nvbm_c0;  ///< C0 budget of the memory-extension regime
};

constexpr DropletScale kFull{7, 2, 8, 100000, std::size_t{1} << 20};
constexpr DropletScale kTiny{4, 1, 3, 400, std::size_t{16} << 10};
constexpr int kQueryBatch = 64;  ///< queries per snapshot pin

/// The same steps on the in-core baseline backend: the reference for the
/// logical content of the final leaves.
std::uint64_t reference_hash(const amr::DropletParams& params, int steps,
                             exec::ThreadPool* pool) {
  nvbm::Device snapshot_dev(std::size_t{16} << 20, nvbm::Config{});
  baseline::InCoreConfig cfg;
  cfg.snapshot_interval = 0;  // logical content only: no snapshot files
  baseline::InCoreBackend mesh(snapshot_dev, cfg);
  amr::DropletWorkload wl(params);
  wl.set_exec(pool);
  wl.initialize(mesh);
  for (int s = 0; s < steps; ++s) wl.step(mesh, s, /*persist=*/false);
  return leaf_hash(mesh);
}

}  // namespace

void run_droplet(const Options& opt, bool nvbm_regime, Report& report) {
  const DropletScale sc = opt.tiny ? kTiny : kFull;
  const amr::DropletParams params = droplet_params(sc.max_level, opt.seed);
  pmoctree::PmConfig pm;
  pm.dram_budget_bytes = nvbm_regime ? sc.nvbm_c0 : std::size_t{64} << 20;
  const int threads = nvbm_regime ? 1 : exec::hardware_threads();
  std::optional<exec::ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  exec::ThreadPool* pool_ptr = pool ? &*pool : nullptr;
  const std::uint64_t query_seed = opt.seed ^ 0x9e3779b97f4a7c15ull;

  const auto run_one = [&](bool traced) {
    Episode ep(params, pm, pool_ptr, traced, sc.warmup);
    ep.measure(sc.window);
    ep.window().queries =
        closed_loop_queries(ep.pm(), query_seed, sc.queries, kQueryBatch);
    ep.finish(/*check_balance=*/true);
    return std::move(ep.window());
  };
  std::vector<Window> untraced, traced;
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  run_episodes(budget, untraced, [&] { return run_one(false); });
  if (opt.trace) run_episodes(budget, traced, [&] { return run_one(true); });

  // Correctness, untimed: every episode's final mesh is 2:1 balanced and
  // equals the in-core baseline's; every episode repeats episode 0's
  // modeled counters. The memory-extension regime is exempt from exact
  // counter equality: its twin map is keyed by heap addresses, which
  // shifts a few node-cache hits between runs.
  const std::uint64_t ref =
      reference_hash(params, sc.warmup + sc.window, pool_ptr);
  for (const auto* ws : {&untraced, &traced}) {
    for (const Window& w : *ws) {
      report.attempt(2);
      if (!w.balanced) report.fail("final mesh is not 2:1 balanced");
      if (w.sig.hash != ref) {
        report.fail("final leaves differ from the in-core baseline");
      }
      report.attempt(w.step_ms.size() + w.queries.latency_us.size());
    }
  }
  check_signatures(untraced, traced, nvbm_regime ? 1e-3 : 0.0, report);

  report.config("workload", opt.workload);
  report.config("seed", static_cast<double>(opt.seed));
  report.config("threads", threads);
  report.config("nproc", exec::hardware_threads());
  report.config("device_bytes", static_cast<double>(kDeviceBytes));
  report.config("c0_budget_bytes", static_cast<double>(pm.dram_budget_bytes));
  report.config("max_level", sc.max_level);
  report.config("warmup_steps", sc.warmup);
  report.config("window_steps", sc.window);
  report.config("partition_ranks", kPartitionRanks);
  report.config("episodes_untraced", static_cast<double>(untraced.size()));
  report.config("episodes_traced", static_cast<double>(traced.size()));
  report.config("leaves_start", static_cast<double>(untraced[0].leaves_start));
  report.config("leaves_end", static_cast<double>(untraced[0].sig.leaves));

  report_end_to_end(untraced, sc.window, report);
  if (opt.trace) report_layers(untraced, traced, report);
}

}  // namespace perfbench
