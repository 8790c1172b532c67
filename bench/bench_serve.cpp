// Snapshot serving bench: N reader threads running point/box/neighbor/
// interface queries at a target QPS against the latest durable epoch
// while the droplet workload keeps mutating and persisting the same
// tree. Reports queries/sec, p50/p95/p99 query latency, snapshot
// staleness (epochs behind the durable head at pin time) and the
// epoch-based-reclamation high-water mark.
//
// Two phases, two contracts:
//  * LIVE phase — mutator + readers race on the exec pool. Everything
//    reported from it (qps, latency percentiles, staleness) is
//    wall-clock and may vary run to run; that is the point.
//  * VERIFY sweep — after the mutator stops, every lane replays a fixed
//    query stream against the final durable epoch. Result hash and
//    modeled serve charges from this sweep are pure functions of the
//    persisted image, bit-identical for --threads 1 and --threads 8
//    (the determinism contract; fig06-style JSON comparison applies).
//
// Observability (PR 7): the report's MetricSampler is ticked explicitly
// by the mutator once per step (library tick points are suppressed
// inside pool tasks), recording QPS, interpolated p99, reclamation HWM,
// staleness and pin-count trajectories. A SloTracker watches every
// query against a latency objective (`--slo <ns>`, default 200us p99),
// publishes burn-rate/budget gauges, and tail-samples slow queries as
// retroactive trace slices on the owning reader lane's track.
#include "bench_report.hpp"

#include <atomic>
#include <bit>
#include <chrono>
#include <thread>

#include "serve/reader.hpp"
#include "serve/slo.hpp"
#include "telemetry/trace.hpp"

using namespace pmo;
using namespace pmo::bench;

namespace {

/// Trace tracks: the mutator and every reader lane get distinct pids so
/// the exported trace shows serving concurrency as separate rows. The
/// values live in trace.hpp so the SLO tracker's tail-sampled slices
/// land on the same lane tracks (layout contract checked by trace_test).
constexpr std::uint32_t kMutatorPid = telemetry::trace::kServeMutatorPid;
constexpr std::uint32_t kReaderPidBase =
    telemetry::trace::kServeReaderPidBase;

/// issue_query's seq % 4 rotation, for SLO slow-query labeling.
constexpr const char* kQueryKind[4] = {"point", "box", "neighbors",
                                       "interface"};

/// splitmix64: the lane-local deterministic query stream generator.
std::uint64_t next_u64(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// FNV-1a over the LOGICAL content of query results (codes + cell
/// payloads), never over NVBM offsets: heap layout may differ between
/// runs (GC timing vs pins), logical content may not.
struct ResultHash {
  std::uint64_t h = 1469598103934665603ull;
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void leaf(const serve::Leaf& l) {
    u64(l.code.key());
    u64(static_cast<std::uint64_t>(l.code.level()));
    u64(std::bit_cast<std::uint64_t>(l.data.vof));
    u64(std::bit_cast<std::uint64_t>(l.data.tracer));
    u64(std::bit_cast<std::uint64_t>(l.data.u));
    u64(std::bit_cast<std::uint64_t>(l.data.v));
    u64(std::bit_cast<std::uint64_t>(l.data.w));
    u64(std::bit_cast<std::uint64_t>(l.data.pressure));
  }
};

/// One query from the lane's deterministic stream: rotates point lookup,
/// box query, face-neighbor find and interface extraction over
/// rng-derived targets. Folds results into `hash` when non-null (the
/// verify sweep); the live phase passes nullptr and discards results.
void issue_query(serve::Reader& r, std::uint64_t& rng, std::uint64_t seq,
                 ResultHash* hash) {
  const std::uint32_t mask = (std::uint32_t{1} << kMaxLevel) - 1;
  const std::uint64_t a = next_u64(rng);
  const std::uint64_t b = next_u64(rng);
  const std::uint32_t x = static_cast<std::uint32_t>(a) & mask;
  const std::uint32_t y = static_cast<std::uint32_t>(a >> 32) & mask;
  const std::uint32_t z = static_cast<std::uint32_t>(b) & mask;
  const auto fold = [&](const serve::Leaf& l) {
    if (hash != nullptr) hash->leaf(l);
  };
  switch (seq % 4) {
    case 0: {  // point lookup at the finest level
      const serve::Leaf l =
          r.locate(LocCode::from_grid(kMaxLevel, x, y, z));
      fold(l);
      break;
    }
    case 1: {  // small region query (2^14-wide box on the finest grid)
      const std::uint32_t w = std::uint32_t{1} << 14;
      serve::Box box;
      box.lo[0] = x & ~(w - 1);
      box.lo[1] = y & ~(w - 1);
      box.lo[2] = z & ~(w - 1);
      for (int i = 0; i < 3; ++i) box.hi[i] = box.lo[i] + w - 1;
      r.query_box(box, fold);
      break;
    }
    case 2: {  // neighbors of the leaf covering a random point
      const serve::Leaf l =
          r.locate(LocCode::from_grid(kMaxLevel, x, y, z));
      fold(l);
      r.face_neighbors(l.code, fold);
      break;
    }
    default: {  // coarse/fine interface inside a 2^15-wide box
      const std::uint32_t w = std::uint32_t{1} << 15;
      serve::Box box;
      box.lo[0] = x & ~(w - 1);
      box.lo[1] = y & ~(w - 1);
      box.lo[2] = z & ~(w - 1);
      for (int i = 0; i < 3; ++i) box.hi[i] = box.lo[i] + w - 1;
      r.interface_facets(box, [&](const serve::InterfaceFacet& f) {
        if (hash != nullptr) {
          hash->leaf(f.fine);
          hash->leaf(f.coarse);
          hash->u64(static_cast<std::uint64_t>(f.face));
        }
      });
      break;
    }
  }
}

struct LaneStats {
  std::uint64_t queries = 0;
  std::uint64_t pins = 0;
  std::uint64_t stale_max = 0;
  std::uint64_t stale_sum = 0;
  telemetry::Histogram latency;  ///< wall-clock ns, lane-local
};

}  // namespace

int main(int argc, char** argv) {
  BenchReport report(
      "serve",
      "Snapshot serving: concurrent readers vs droplet mutator",
      argc, argv);
  int readers = 4;
  double target_qps = 2000.0;
  std::uint64_t slo_ns = 200'000;  // p99 objective: 200 us
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--readers") readers = std::atoi(argv[i + 1]);
    if (std::string(argv[i]) == "--qps") target_qps = std::atof(argv[i + 1]);
    if (std::string(argv[i]) == "--slo") {
      slo_ns = static_cast<std::uint64_t>(std::atoll(argv[i + 1]));
    }
  }
  readers = std::max(1, readers);
  target_qps = std::max(1.0, target_qps);
  slo_ns = std::max<std::uint64_t>(1, slo_ns);
  report.print_header();
  telemetry::trace::name_current_thread("bench");
  // Live-phase numbers (latency, staleness) are wall-clock racy by design.
  // The modeled counters are too once readers run beside the mutator: a
  // reader pin that overlaps a persist defers reclamation. With one
  // thread run_tasks runs the mutator to completion before any reader,
  // so no pin overlaps a persist and benchdiff may exact-match them.
  report.set_modeled_exact(bench_threads() == 1);

  const double scale = bench_scale();
  const int steps = std::max(3, static_cast<int>(40 * std::min(1.0, scale)));
  const int batch = std::max(8, static_cast<int>(64 * std::min(1.0, scale)));
  amr::DropletParams params;
  params.min_level = 2;
  params.max_level = scale >= 4 ? 5 : 4;
  params.dt = 3.0 / steps;

  pmoctree::PmConfig pm;
  pm.dram_budget_bytes = 1 << 20;
  auto bundle = make_pm(std::size_t{256} << 20, pm);
  amr::DropletWorkload wl(params);
  register_droplet_feature(bundle, wl);
  wl.initialize(*bundle.mesh);
  // Seed the first durable epoch so readers have something to pin from
  // the very first batch.
  wl.step(*bundle.mesh, 0, /*persist=*/true);
  std::printf("mesh: %zu leaves, %d mutator steps, %d readers @ %.0f QPS "
              "target\n\n",
              bundle.mesh->leaf_count(), steps, readers, target_qps);

  exec::ThreadPool pool(bench_threads());
  amr::PmOctreeBackend& backend = *bundle.pm;

  // Serving-side observability: pins and the reclamation high-water mark
  // as pull-mode gauges (refreshed by every sampler tick / snapshot),
  // staleness as a push gauge written by readers at pin time.
  auto& reg = telemetry::Registry::global();
  telemetry::Gauge& stale_gauge = reg.gauge("serve.staleness");
  telemetry::Registry::Source serve_src = reg.register_source(
      [&backend](telemetry::Registry& r) {
        r.gauge("serve.pins").set(
            static_cast<double>(backend.tree().snapshot_pins()));
        r.gauge("serve.reclaim_hwm").set(static_cast<double>(
            backend.tree().deferred_reclaim_high_water()));
      },
      [&reg] {
        reg.drop_gauges("serve.pins");
        reg.drop_gauges("serve.reclaim_hwm");
        reg.drop_gauges("serve.staleness");
      });

  // Serving time-series, sampled once per mutator step (explicit ticks:
  // library tick points are suppressed inside pool tasks). All
  // wall-clock-coupled, hence modeled=false.
  using telemetry::timeseries::Kind;
  auto& sampler = report.sampler();
  sampler.add({"serve.qps", Kind::kRate, "serve.query_ns", "", 0.0, false});
  sampler.add(
      {"serve.p99_ns", Kind::kPercentile, "serve.query_ns", "", 0.99, false});
  sampler.add(
      {"serve.reclaim_hwm", Kind::kGauge, "serve.reclaim_hwm", "", 0.0, false});
  sampler.add(
      {"serve.staleness", Kind::kGauge, "serve.staleness", "", 0.0, false});
  sampler.add({"serve.pins", Kind::kGauge, "serve.pins", "", 0.0, false});

  serve::SloConfig slo_cfg;
  slo_cfg.latency_objective_ns = slo_ns;
  serve::SloTracker slo(reg, slo_cfg);
  sampler.add({"serve.slo.budget_remaining", Kind::kGauge,
               "serve.slo.budget_remaining", "", 0.0, false});

  // ---- LIVE phase: task 0 mutates+persists, tasks 1..R serve ---------------
  std::atomic<bool> done{false};
  std::vector<LaneStats> lanes(static_cast<std::size_t>(readers));
  telemetry::Histogram& global_lat =
      telemetry::Registry::global().histogram("serve.query_ns");
  // Per-lane query pacing keeps the *aggregate* arrival rate at the
  // target: lane interval = readers / qps.
  const auto interval = std::chrono::nanoseconds(static_cast<std::uint64_t>(
      1e9 * readers / target_qps));

  std::vector<exec::ThreadPool::Task> tasks;
  tasks.push_back([&] {
    telemetry::trace::TrackGuard track(kMutatorPid, 0);
    telemetry::trace::name_process(kMutatorPid, "serve mutator");
    for (int s = 1; s <= steps; ++s) {
      telemetry::trace::begin("serve.mutate_step");
      wl.step(*bundle.mesh, s, /*persist=*/true);
      telemetry::trace::end("serve.mutate_step");
      // One SLO window + one time-series sample per mutator step. Ticks
      // run only here (single-driver contract); Device counters are
      // mutator-written, so sampling them from this thread is race-free.
      slo.tick();
      report.sampler().tick();
    }
    done.store(true, std::memory_order_release);
  });
  for (int lane = 0; lane < readers; ++lane) {
    tasks.push_back([&, lane] {
      const std::uint32_t pid =
          kReaderPidBase + static_cast<std::uint32_t>(lane);
      telemetry::trace::TrackGuard track(pid, 0);
      telemetry::trace::name_process(
          pid, "serve reader " + std::to_string(lane));
      LaneStats& st = lanes[static_cast<std::size_t>(lane)];
      std::uint64_t rng = 0x5eedull + static_cast<std::uint64_t>(lane);
      serve::Reader reader(backend.pin_snapshot());
      auto next = std::chrono::steady_clock::now();
      bool first = true;
      // Re-pin the latest durable epoch per batch; run at least one
      // batch even if the mutator already finished (--threads 1 runs
      // the tasks sequentially).
      while (first || !done.load(std::memory_order_acquire)) {
        first = false;
        pmoctree::SnapshotHandle snap = backend.pin_snapshot();
        const std::uint64_t stale =
            backend.durable_epoch() - snap.epoch();
        st.stale_max = std::max(st.stale_max, stale);
        st.stale_sum += stale;
        ++st.pins;
        stale_gauge.set(static_cast<double>(stale));
        reader.rebind(std::move(snap));
        telemetry::trace::begin("serve.batch");
        for (int q = 0; q < batch; ++q) {
          const auto now = std::chrono::steady_clock::now();
          if (next > now) std::this_thread::sleep_until(next);
          next = std::max(next + interval,
                          std::chrono::steady_clock::now());
          const serve::ReadCharges before = reader.charges();
          const std::uint64_t ts0 = telemetry::trace::now_ns();
          const auto t0 = std::chrono::steady_clock::now();
          issue_query(reader, rng, st.queries, nullptr);
          const std::uint64_t ns = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count());
          st.latency.record(ns);
          global_lat.record(ns);
          const serve::ReadCharges after = reader.charges();
          serve::ReadCharges d;
          d.node_loads = after.node_loads - before.node_loads;
          d.cached_loads = after.cached_loads - before.cached_loads;
          d.lines_read = after.lines_read - before.lines_read;
          d.modeled_ns = after.modeled_ns - before.modeled_ns;
          slo.observe(static_cast<std::uint32_t>(lane),
                      kQueryKind[st.queries % 4], ts0, ns, d, stale);
          ++st.queries;
        }
        telemetry::trace::end("serve.batch");
      }
    });
  }
  const auto live0 = std::chrono::steady_clock::now();
  pool.run_tasks(tasks);
  const double live_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    live0)
          .count();

  // ---- per-lane table ------------------------------------------------------
  report.begin_table({"lane", "queries", "qps", "p50 us", "p95 us",
                      "p99 us", "pins", "stale max", "stale mean"});
  std::uint64_t total_q = 0, stale_max = 0, stale_sum = 0, pins = 0;
  for (int lane = 0; lane < readers; ++lane) {
    const LaneStats& st = lanes[static_cast<std::size_t>(lane)];
    total_q += st.queries;
    stale_max = std::max(stale_max, st.stale_max);
    stale_sum += st.stale_sum;
    pins += st.pins;
    const double mean_stale =
        st.pins != 0 ? static_cast<double>(st.stale_sum) /
                           static_cast<double>(st.pins)
                     : 0.0;
    report.row({std::to_string(lane), std::to_string(st.queries),
                TablePrinter::num(st.queries / live_s, 0),
                TablePrinter::num(st.latency.percentile(0.50) / 1e3, 1),
                TablePrinter::num(st.latency.percentile(0.95) / 1e3, 1),
                TablePrinter::num(st.latency.percentile(0.99) / 1e3, 1),
                std::to_string(st.pins), std::to_string(st.stale_max),
                TablePrinter::num(mean_stale, 2)});
  }
  report.print_table(std::cout);
  const double qps = total_q / live_s;
  const double stale_mean =
      pins != 0 ? static_cast<double>(stale_sum) / static_cast<double>(pins)
                : 0.0;
  std::printf("\nlive: %.2f s, %llu queries, %.0f QPS aggregate (target "
              "%.0f); latency p50/p95/p99 = %.1f/%.1f/%.1f us; staleness "
              "max %llu mean %.2f epochs; deferred-reclaim HWM %zu nodes\n",
              live_s, static_cast<unsigned long long>(total_q), qps,
              target_qps, global_lat.percentile(0.50) / 1e3,
              global_lat.percentile(0.95) / 1e3,
              global_lat.percentile(0.99) / 1e3,
              static_cast<unsigned long long>(stale_max), stale_mean,
              backend.tree().deferred_reclaim_high_water());

  // ---- VERIFY sweep: deterministic fixed-lane replay -----------------------
  // Same lane count regardless of --threads; per-lane streams are fixed
  // and results are combined in lane order, so hash and charges are
  // bit-identical across thread counts.
  const int verify_q = 4 * batch;
  std::vector<ResultHash> hashes(static_cast<std::size_t>(readers));
  std::vector<serve::ReadCharges> charges(static_cast<std::size_t>(readers));
  pool.parallel_for(static_cast<std::size_t>(readers), [&](std::size_t lane) {
    serve::Reader reader(backend.pin_snapshot());
    std::uint64_t rng = 0xfeedull + lane;
    for (int q = 0; q < verify_q; ++q) {
      issue_query(reader, rng, static_cast<std::uint64_t>(q),
                  &hashes[lane]);
    }
    charges[lane] = reader.charges();
  });
  ResultHash combined;
  serve::ReadCharges total_charges;
  for (int lane = 0; lane < readers; ++lane) {
    combined.u64(hashes[static_cast<std::size_t>(lane)].h);
    total_charges.merge(charges[static_cast<std::size_t>(lane)]);
  }
  char hash_hex[32];
  std::snprintf(hash_hex, sizeof hash_hex, "0x%016llx",
                static_cast<unsigned long long>(combined.h));
  std::printf("verify: %d lanes x %d queries on epoch %u, result hash %s, "
              "modeled read %.3f ms (%llu NVBM loads, %llu cached)\n",
              readers, verify_q, backend.durable_epoch(), hash_hex,
              total_charges.modeled_ns / 1e6,
              static_cast<unsigned long long>(total_charges.node_loads),
              static_cast<unsigned long long>(total_charges.cached_loads));

  namespace json = telemetry::json;
  json::Value serve = json::Value::object();
  serve["readers"] = readers;
  serve["target_qps"] = target_qps;
  serve["mutator_steps"] = steps;
  serve["live_seconds"] = live_s;
  serve["queries"] = total_q;
  serve["qps"] = qps;
  json::Value latency = json::Value::object();
  latency["p50_ns"] = global_lat.percentile(0.50);
  latency["p95_ns"] = global_lat.percentile(0.95);
  latency["p99_ns"] = global_lat.percentile(0.99);
  latency["mean_ns"] = global_lat.mean();
  latency["max_ns"] = global_lat.max();
  serve["latency"] = std::move(latency);
  json::Value staleness = json::Value::object();
  staleness["max"] = stale_max;
  staleness["mean"] = stale_mean;
  serve["staleness"] = std::move(staleness);
  serve["deferred_reclaim_hwm"] =
      backend.tree().deferred_reclaim_high_water();
  serve["pins"] = backend.tree().snapshot_pins();
  serve["unpins"] = backend.tree().snapshot_unpins();
  serve["result_hash"] = std::string(hash_hex);
  json::Value vcharges = json::Value::object();
  vcharges["node_loads"] = total_charges.node_loads;
  vcharges["cached_loads"] = total_charges.cached_loads;
  vcharges["lines_read"] = total_charges.lines_read;
  vcharges["modeled_ns"] = total_charges.modeled_ns;
  serve["verify_charges"] = std::move(vcharges);
  report.set("serve", std::move(serve));
  std::printf("slo: p%.0f objective %llu ns, %llu/%llu violations, budget "
              "remaining %.3f, %llu tail-sampled slow queries (>= %llu ns)\n",
              100.0 * slo_cfg.objective_quantile,
              static_cast<unsigned long long>(slo_ns),
              static_cast<unsigned long long>(slo.violations()),
              static_cast<unsigned long long>(slo.total()),
              slo.budget_remaining(),
              static_cast<unsigned long long>(slo.tail_sampled()),
              static_cast<unsigned long long>(slo.slow_threshold_ns()));
  report.set("slo", slo.to_json());
  report.write();
  return 0;
}
