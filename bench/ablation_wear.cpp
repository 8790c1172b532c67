// Ablation: NVBM endurance/wear (§5.5's "extend the lifetime of NVBM"
// claim, Table 2's endurance row).
//
// Runs the droplet workload with per-cache-line wear tracking enabled and
// compares maximum and mean line wear with and without the dynamic layout
// transformation, plus an estimate of device lifetime at Table 2's
// endurance bounds. The transformation moves write-hot subtrees to DRAM,
// so the hottest NVBM lines should wear more slowly. The printed finding
// is derived from the measured max and mean wear.
#include "bench_report.hpp"

using namespace pmo;
using namespace pmo::bench;

namespace {

struct WearResult {
  std::uint64_t max_wear;
  double mean_wear;
  std::uint64_t writes;
  double steps;
};

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("ablation_wear", "Ablation: NVBM wear / endurance",
                     argc, argv);
  report.print_header();
  // At least one step, so a scaled-down smoke run still measures wear.
  const int steps = std::max(1, static_cast<int>(10 * bench_scale()));

  auto run_direct = [&](bool transform) {
    nvbm::Config cfg = device_config();
    cfg.track_wear = true;
    auto dev = std::make_unique<nvbm::Device>(std::size_t{256} << 20, cfg);
    pmoctree::PmConfig pm;
    pm.dram_budget_bytes = 64 << 10;
    pm.enable_transform = transform;
    auto mesh = std::make_unique<amr::PmOctreeBackend>(*dev, pm);
    amr::DropletParams params;
    params.min_level = 3;
    params.max_level = 5;
    params.dt = 0.12;
    amr::DropletWorkload wl(params);
    mesh->register_feature([&wl](const LocCode& c, const CellData& d) {
      return wl.hot_feature(c, d);
    });
    wl.initialize(*mesh);
    for (int s = 0; s < steps; ++s) wl.step(*mesh, s);
    return WearResult{dev->max_wear(), dev->mean_wear(),
                      dev->counters().writes,
                      static_cast<double>(steps)};
  };

  report.begin_table({"config", "max line wear", "mean line wear",
                      "NVBM writes", "lifetime @1e6 writes/line",
                      "lifetime @1e8"});
  WearResult results[2];
  for (const bool transform : {false, true}) {
    const auto& r = results[transform] = run_direct(transform);
    // Lifetime: steps until the hottest line reaches the endurance bound,
    // expressed in multiples of this run.
    const double runs_1e6 = 1e6 / std::max<double>(1.0, r.max_wear);
    const double runs_1e8 = 1e8 / std::max<double>(1.0, r.max_wear);
    report.row({transform ? "with transformation" : "without",
               std::to_string(r.max_wear), TablePrinter::num(r.mean_wear, 1),
               std::to_string(r.writes),
               TablePrinter::num(runs_1e6 * r.steps, 0) + " steps",
               TablePrinter::num(runs_1e8 * r.steps, 0) + " steps"});
  }
  report.print_table(std::cout);
  // The finding follows the measurement: how concentrated wear is (the
  // hottest line against the mean) and what the transformation changed.
  const auto change = [](double before, double after) {
    return before == 0.0 ? 0.0 : 100.0 * (after - before) / before;
  };
  const auto& [off, on] = results;
  std::printf("\nfinding: the hottest line wears %.1fx the mean without the "
              "transformation and %.1fx with it; lifetime is set by the "
              "hottest line, so wear-leveling could extend it at most that "
              "much. The transformation changes max line wear by %+.1f%% and "
              "mean line wear by %+.1f%%. Endurance bounds from Table 2 "
              "(1e6-1e8 writes/bit).\n",
              static_cast<double>(off.max_wear) / std::max(1.0, off.mean_wear),
              static_cast<double>(on.max_wear) / std::max(1.0, on.mean_wear),
              change(static_cast<double>(off.max_wear),
                     static_cast<double>(on.max_wear)),
              change(off.mean_wear, on.mean_wear));
  report.write();
  return 0;
}
