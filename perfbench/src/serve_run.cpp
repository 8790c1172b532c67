// serve_mixed: reads beside writes. One mutator steps and persists a
// max_level 6 droplet (1 MiB C0) back to back — a closed loop — while two
// reader threads run an open-loop stream at a fixed rate, rotating
// locate/box/neighbors/interface queries over re-pinned durable
// snapshots. Each query is timed from the moment it was due, so a stall
// also charges the queries queued behind it.
//
// Pacing sleeps until shortly before the due time and spins the rest.
// Spinning all the way would keep three cores busy, and on a host whose
// CPU share is capped that gets the whole process paused for milliseconds
// at a time — the pauses, not the readers, would then set the tail.
#include <thread>

#include "exec/pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace pmo;

struct ServeScale {
  int max_level;
  int warmup;
  int window;
  double lane_qps;  ///< offered rate of each reader
  int verify;       ///< locate-vs-sample probes after the mutator stops
};

constexpr ServeScale kFull{6, 2, 12, 1000.0, 256};
constexpr ServeScale kTiny{4, 1, 4, 1000.0, 32};
constexpr int kReaders = 2;
constexpr int kPinBatch = 32;  ///< queries per snapshot pin
/// Pacing wakes this long before a query is due and spins the rest.
constexpr auto kSpinMargin = std::chrono::microseconds(150);

double us(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(ns_between(a, b)) * 1e-3;
}

/// One reader lane: re-pins the latest durable epoch every kPinBatch
/// queries and issues query k at start + k * interval.
void open_loop_lane(amr::PmOctreeBackend& pm, std::uint64_t seed,
                    Clock::time_point start, std::chrono::nanoseconds interval,
                    const std::stop_token& stop, QueryLog& log) {
  std::uint64_t rng = seed;
  serve::Reader reader(pm.pin_snapshot());
  std::uint64_t seq = 0;
  while (!stop.stop_requested()) {
    const auto p0 = Clock::now();
    reader.rebind(pm.pin_snapshot());
    log.pin_us.push_back(us(p0, Clock::now()));
    ++log.pins;
    for (int q = 0; q < kPinBatch; ++q, ++seq) {
      const auto due = start + interval * static_cast<std::int64_t>(seq);
      if (due - Clock::now() > kSpinMargin) {
        std::this_thread::sleep_until(due - kSpinMargin);
      }
      auto t0 = Clock::now();
      while (t0 < due) t0 = Clock::now();
      if (stop.stop_requested()) break;
      issue_query(reader, rng, seq);
      const auto t1 = Clock::now();
      log.stale_sum += pm.durable_epoch() - reader.snapshot().epoch();
      log.latency_us.push_back(us(due, t1));
      log.service_us[seq % kQueryKinds.size()].push_back(us(t0, t1));
      log.lag_sum_us += us(due, t0);
    }
  }
  log.add_reader_stats(reader);
}

}  // namespace

void run_serve(const Options& opt, Report& report) {
  const ServeScale sc = opt.tiny ? kTiny : kFull;
  const amr::DropletParams params = droplet_params(sc.max_level, opt.seed);
  pmoctree::PmConfig pm;
  pm.dram_budget_bytes = std::size_t{1} << 20;
  const auto interval = std::chrono::nanoseconds(
      static_cast<std::int64_t>(1e9 / sc.lane_qps));

  std::uint64_t verified = 0;
  std::uint64_t mismatched = 0;
  const auto run_one = [&](bool traced) {
    Episode ep(params, pm, /*pool=*/nullptr, traced, sc.warmup);
    std::vector<QueryLog> lanes(kReaders);
    const auto start = Clock::now();
    {
      // jthread's destructor requests stop and joins, on exception paths
      // too, before the episode (and the snapshots the lanes pin) dies.
      std::vector<std::jthread> readers;
      for (int lane = 0; lane < kReaders; ++lane) {
        readers.emplace_back([&, lane](std::stop_token stop) {
          open_loop_lane(ep.pm(), opt.seed + 0x51ed + lane, start, interval,
                         stop, lanes[static_cast<std::size_t>(lane)]);
        });
      }
      ep.measure(sc.window);
    }
    QueryLog& queries = ep.window().queries;
    for (const QueryLog& lane : lanes) queries.merge(lane);
    queries.seconds =
        static_cast<double>(ns_between(start, Clock::now())) * 1e-9;

    // Untimed check once the mutator has stopped: a reader on the latest
    // durable snapshot sees exactly what the live tree samples.
    serve::Reader reader(ep.pm().pin_snapshot());
    std::uint64_t rng = opt.seed ^ 0xc0ffee;
    const std::uint32_t mask = (std::uint32_t{1} << kMaxLevel) - 1;
    for (int i = 0; i < sc.verify; ++i) {
      const std::uint64_t a = splitmix64(rng);
      const std::uint64_t b = splitmix64(rng);
      const LocCode code = LocCode::from_grid(
          kMaxLevel, static_cast<std::uint32_t>(a) & mask,
          static_cast<std::uint32_t>(a >> 32) & mask,
          static_cast<std::uint32_t>(b) & mask);
      ++verified;
      if (!(reader.locate(code).data == ep.pm().sample(code))) ++mismatched;
    }
    ep.finish(/*check_balance=*/false);
    return std::move(ep.window());
  };
  std::vector<Window> untraced, traced;
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  run_episodes(budget, untraced, [&] { return run_one(false); });
  if (opt.trace) run_episodes(budget, traced, [&] { return run_one(true); });

  report.attempt(verified);
  for (std::uint64_t i = 0; i < mismatched; ++i) {
    report.fail("snapshot locate disagrees with the live tree's sample");
  }
  for (const auto* ws : {&untraced, &traced}) {
    for (const Window& w : *ws) {
      report.attempt(w.step_ms.size() + w.queries.latency_us.size());
      if (w.queries.latency_us.empty()) {
        report.fail("readers served no query while the mutator persisted");
      }
    }
  }
  // Reader pins defer reclamation by wall-clock timing, which moves later
  // allocations and with them the modeled line counts: only the logical
  // content must repeat here. The droplet workloads check the counters.
  check_signatures(untraced, traced, std::nullopt, report);

  report.config("workload", opt.workload);
  report.config("seed", static_cast<double>(opt.seed));
  report.config("threads", 1 + kReaders);
  report.config("nproc", exec::hardware_threads());
  report.config("device_bytes", static_cast<double>(kDeviceBytes));
  report.config("c0_budget_bytes", static_cast<double>(pm.dram_budget_bytes));
  report.config("max_level", sc.max_level);
  report.config("warmup_steps", sc.warmup);
  report.config("window_steps", sc.window);
  report.config("partition_ranks", kPartitionRanks);
  report.config("readers", kReaders);
  report.config("offered_qps", kReaders * sc.lane_qps);
  report.config("episodes_untraced", static_cast<double>(untraced.size()));
  report.config("episodes_traced", static_cast<double>(traced.size()));
  report.config("leaves_start", static_cast<double>(untraced[0].leaves_start));
  report.config("leaves_end", static_cast<double>(untraced[0].sig.leaves));

  report_end_to_end(untraced, sc.window, report);
  if (opt.trace) report_layers(untraced, traced, report);
}

}  // namespace perfbench
