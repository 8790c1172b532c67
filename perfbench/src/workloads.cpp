#include "workloads.hpp"

#include <bit>
#include <cmath>

#include "cluster/cluster_sim.hpp"
#include "cluster/partition.hpp"

namespace perfbench {

namespace {

using namespace pmo;

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(ns_between(a, b)) * 1e-3;
}

serve::Box box_at(std::uint32_t x, std::uint32_t y, std::uint32_t z,
                  int width_log2) {
  const std::uint32_t w = std::uint32_t{1} << width_log2;
  serve::Box box;
  box.lo[0] = x & ~(w - 1);
  box.lo[1] = y & ~(w - 1);
  box.lo[2] = z & ~(w - 1);
  for (int i = 0; i < 3; ++i) box.hi[i] = box.lo[i] + w - 1;
  return box;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

std::uint64_t leaf_hash(amr::MeshBackend& mesh) {
  std::uint64_t h = 1469598103934665603ull;
  mesh.visit_leaves([&](const LocCode& code, const CellData& d) {
    fnv(h, code.key());
    fnv(h, static_cast<std::uint64_t>(code.level()));
    for (const double v : {d.vof, d.tracer, d.u, d.v, d.w, d.pressure}) {
      fnv(h, std::bit_cast<std::uint64_t>(v));
    }
  });
  return h;
}

amr::DropletParams droplet_params(int max_level, std::uint64_t seed) {
  amr::DropletParams base;
  base.min_level = 2;
  base.max_level = max_level;
  return cluster::ClusterSim::rank_params(base, seed, 1);
}

// ---- snapshot queries -------------------------------------------------------

void issue_query(serve::Reader& reader, std::uint64_t& rng,
                 std::uint64_t seq) {
  const std::uint32_t mask = (std::uint32_t{1} << kMaxLevel) - 1;
  const std::uint64_t a = splitmix64(rng);
  const std::uint64_t b = splitmix64(rng);
  const std::uint32_t x = static_cast<std::uint32_t>(a) & mask;
  const std::uint32_t y = static_cast<std::uint32_t>(a >> 32) & mask;
  const std::uint32_t z = static_cast<std::uint32_t>(b) & mask;
  const LocCode point = LocCode::from_grid(kMaxLevel, x, y, z);
  switch (seq % kQueryKinds.size()) {
    case 0:
      reader.locate(point);
      break;
    case 1:  // a few finest cells around the point
      reader.query_box(box_at(x, y, z, 14), [](const serve::Leaf&) {});
      break;
    case 2:
      reader.face_neighbors(reader.locate(point).code,
                            [](const serve::Leaf&) {});
      break;
    default:  // coarse/fine facets in a slightly larger box
      reader.interface_facets(box_at(x, y, z, 15),
                              [](const serve::InterfaceFacet&) {});
      break;
  }
}

void QueryLog::merge(const QueryLog& o) {
  const auto append = [](std::vector<double>& dst,
                         const std::vector<double>& src) {
    dst.insert(dst.end(), src.begin(), src.end());
  };
  append(latency_us, o.latency_us);
  for (std::size_t k = 0; k < service_us.size(); ++k) {
    append(service_us[k], o.service_us[k]);
  }
  append(pin_us, o.pin_us);
  lag_sum_us += o.lag_sum_us;
  pins += o.pins;
  stale_sum += o.stale_sum;
  charges.merge(o.charges);
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  seconds += o.seconds;
}

void QueryLog::add_reader_stats(const serve::Reader& reader) {
  charges.merge(reader.charges());
  cache_hits += reader.cache_stats().hits;
  cache_misses += reader.cache_stats().misses;
}

QueryLog closed_loop_queries(amr::PmOctreeBackend& pm, std::uint64_t seed,
                             int queries, int batch) {
  QueryLog log;
  std::uint64_t rng = seed;
  serve::Reader reader(pm.pin_snapshot());
  const auto start = Clock::now();
  // In a closed loop a query is due when the previous one returns, so the
  // generator's lag is the gap between the two (re-pins included).
  auto due = start;
  for (int q = 0; q < queries; ++q) {
    if (q % batch == 0) {
      const auto p0 = Clock::now();
      reader.rebind(pm.pin_snapshot());
      log.pin_us.push_back(us_between(p0, Clock::now()));
      ++log.pins;
    }
    const auto t0 = Clock::now();
    issue_query(reader, rng, static_cast<std::uint64_t>(q));
    const auto t1 = Clock::now();
    log.latency_us.push_back(us_between(due, t1));
    log.service_us[static_cast<std::size_t>(q) % kQueryKinds.size()]
        .push_back(us_between(t0, t1));
    log.lag_sum_us += us_between(due, t0);
    due = t1;
  }
  log.seconds = static_cast<double>(ns_between(start, Clock::now())) * 1e-9;
  log.add_reader_stats(reader);
  return log;
}

// ---- episodes ---------------------------------------------------------------

bool Signature::matches(const Signature& o, std::optional<double> rel_tol,
                        std::string& why) const {
  if (leaves != o.leaves || hash != o.hash) {
    why = "final leaves differ (" + std::to_string(leaves) + " vs " +
          std::to_string(o.leaves) + " leaves)";
    return false;
  }
  if (!rel_tol) return true;
  const auto close = [&](const char* what, std::uint64_t a, std::uint64_t b) {
    const double diff =
        std::abs(static_cast<double>(a) - static_cast<double>(b));
    if (diff <= *rel_tol * static_cast<double>(std::max(a, b))) return true;
    why = std::string(what) + " " + std::to_string(a) + " vs " +
          std::to_string(b);
    return false;
  };
  return close("modeled_ns", modeled_ns, o.modeled_ns) &&
         close("lines_written", lines_written, o.lines_written) &&
         close("lines_read", lines_read, o.lines_read) &&
         close("cached_reads", cached_reads, o.cached_reads) &&
         close("eviction_merges", eviction_merges, o.eviction_merges);
}

Episode::Episode(const amr::DropletParams& params,
                 const pmoctree::PmConfig& pm, exec::ThreadPool* pool,
                 bool traced, int warmup) {
  w_.traced = traced;
  const auto t0 = Clock::now();
  nvbm::Config dev;
  dev.latency_mode = nvbm::LatencyMode::kModeled;
  device_ = std::make_unique<nvbm::Device>(kDeviceBytes, dev);
  w_.alloc_ms = static_cast<double>(ns_between(t0, Clock::now())) * 1e-6;
  wl_ = std::make_unique<amr::DropletWorkload>(params);
  wl_->set_exec(pool);
  pm_ = std::make_unique<amr::PmOctreeBackend>(*device_, pm);
  amr::DropletWorkload* wl = wl_.get();
  pm_->register_feature([wl](const LocCode& code, const CellData& d) {
    return wl->hot_feature(code, d);
  });
  if (traced) timed_.emplace(*pm_);
  wl_->initialize(mesh());
  amr::StepStats st;
  for (int i = 0; i < warmup; ++i) step_and_partition(&st);
  w_.leaves_start = st.leaves;
  w_.setup_s = static_cast<double>(ns_between(t0, Clock::now())) * 1e-9;
}

amr::MeshBackend& Episode::mesh() {
  if (timed_) return *timed_;
  return *pm_;
}

void Episode::step_and_partition(amr::StepStats* st) {
  amr::MeshBackend& m = mesh();
  const auto a = Clock::now();
  const std::uint64_t inside_a = timed_ ? timed_->clock().inside_ns : 0;
  *st = wl_->step(m, next_step_++);
  const auto b = Clock::now();
  const std::uint64_t inside_b = timed_ ? timed_->clock().inside_ns : 0;
  w_.self_ns += ns_between(a, b) - (inside_b - inside_a);

  // The Partition routine on the step's leaves (ClusterSim's census).
  std::vector<LocCode> codes;
  codes.reserve(st->leaves);
  m.visit_leaves(
      [&](const LocCode& code, const CellData&) { codes.push_back(code); });
  const auto p0 = Clock::now();
  const cluster::Partition part =
      cluster::partition_leaves(std::move(codes), kPartitionRanks);
  const cluster::PartitionStats stats =
      cluster::analyze_partition(part, prev_owner_);
  prev_owner_ = cluster::owner_map(part);
  w_.partition_ns += ns_between(p0, Clock::now());
  w_.migrated += stats.migrated;
  for (const std::size_t b2 : stats.boundary) w_.ghost_leaves += b2;
}

void Episode::measure(int steps) {
  pmoctree::PmOctree& tree = pm_->tree();
  // Everything accumulated during set-up is dropped: the window's figures
  // are deltas from here.
  w_.self_ns = w_.partition_ns = w_.migrated = w_.ghost_leaves = 0;
  const std::uint64_t modeled0 = pm_->modeled_ns();
  const nvbm::Counters dev0 = device_->counters();
  const std::size_t evict0 = tree.eviction_merges();
  const auto cache0 = tree.node_cache_stats();
  telemetry::Snapshot tel0;
  MeshClock clock0;
  if (timed_) {
    tel0 = telemetry::Registry::global().snapshot();
    clock0 = timed_->clock();
  }
  for (int i = 0; i < steps; ++i) {
    amr::StepStats st;
    const auto a = Clock::now();
    step_and_partition(&st);
    w_.step_ms.push_back(static_cast<double>(ns_between(a, Clock::now())) *
                         1e-6);
    w_.refined += st.refined;
    w_.coarsened += st.coarsened;
    w_.balance_refined += st.balance_refined;
    w_.leaves_sum += st.leaves;
    w_.sig.leaves = st.leaves;
  }
  if (timed_) {
    w_.telemetry = telemetry::Registry::global().snapshot().delta(tel0);
    w_.clock = timed_->clock().since(clock0);
  }
  const nvbm::Counters& dev = device_->counters();
  w_.device.lines_read = dev.lines_read - dev0.lines_read;
  w_.device.lines_written = dev.lines_written - dev0.lines_written;
  w_.device.cached_reads = dev.cached_reads - dev0.cached_reads;
  w_.device.flush_spans = dev.flush_spans - dev0.flush_spans;
  w_.device.modeled_read_ns = dev.modeled_read_ns - dev0.modeled_read_ns;
  w_.device.modeled_write_ns = dev.modeled_write_ns - dev0.modeled_write_ns;
  w_.cache_hits = tree.node_cache_stats().hits - cache0.hits;
  w_.cache_misses = tree.node_cache_stats().misses - cache0.misses;
  w_.sig.modeled_ns = pm_->modeled_ns() - modeled0;
  w_.sig.lines_written = w_.device.lines_written;
  w_.sig.lines_read = w_.device.lines_read;
  w_.sig.cached_reads = w_.device.cached_reads;
  w_.sig.eviction_merges = tree.eviction_merges() - evict0;
  w_.rss_mb = peak_rss_mb();
}

void Episode::finish(bool check_balance) {
  w_.reclaim_hwm = pm_->tree().deferred_reclaim_high_water();
  w_.dram_mb = static_cast<double>(pm_->tree().stats().dram_bytes) /
               (1024.0 * 1024.0);
  w_.sig.hash = leaf_hash(*pm_);
  if (check_balance) w_.balanced = pm_->tree().is_balanced();
}

void check_signatures(const std::vector<Window>& untraced,
                      const std::vector<Window>& traced,
                      std::optional<double> rel_tol, Report& report) {
  std::vector<const Window*> all;
  for (const Window& w : untraced) all.push_back(&w);
  for (const Window& w : traced) all.push_back(&w);
  for (std::size_t i = 1; i < all.size(); ++i) {
    report.attempt();
    std::string why;
    if (!all[i]->sig.matches(all[0]->sig, rel_tol, why)) {
      report.fail(std::string(all[i]->traced ? "traced" : "untraced") +
                  " episode " + std::to_string(i) +
                  " disagrees with episode 0: " + why);
    }
  }
}

void report_end_to_end(const std::vector<Window>& untraced, int window_steps,
                       Report& report) {
  // Per-episode figures are medians over episodes, so one episode caught
  // in a host pause does not move them. Query latency quantiles pool every
  // episode's queries: a tail needs the samples.
  std::vector<double> setup, wall, steps, modeled, written, service, rate;
  double dram_peak = 0.0;
  for (const Window& w : untraced) {
    setup.push_back(w.setup_s);
    double sum = 0.0;
    for (const double ms : w.step_ms) sum += ms;
    wall.push_back(sum * 1e-3);
    steps.insert(steps.end(), w.step_ms.begin(), w.step_ms.end());
    modeled.push_back(static_cast<double>(w.sig.modeled_ns) * 1e-6 /
                      window_steps);
    written.push_back(static_cast<double>(w.sig.lines_written) /
                      window_steps);
    dram_peak = std::max(dram_peak, w.dram_mb);
    for (const auto& kind : w.queries.service_us) {
      service.insert(service.end(), kind.begin(), kind.end());
    }
    rate.push_back(ratio(static_cast<double>(w.queries.latency_us.size()),
                         w.queries.seconds));
  }
  report.end_to_end("setup_s", median(setup), "s");
  report.end_to_end("sim_wall_s", median(wall), "s");
  report.end_to_end("step_ms.p50", median(steps), "ms");
  report.end_to_end("modeled_step_ms", median(modeled), "ms");
  report.end_to_end("nvbm_lines_written", median(written), "lines/step");
  report.end_to_end("dram_peak_mb", dram_peak, "MiB");
  // The first window's high-water: later ones also hold the benchmark's
  // own per-query samples of the episodes before them.
  report.end_to_end("peak_rss_mb", untraced.front().rss_mb, "MiB");
  report.end_to_end("query_p50_us", quantile(service, 0.50), "us");
  report.end_to_end("query_p99_us", quantile(service, 0.99), "us");
  report.end_to_end("query_rate", median(rate), "1/s");
}

void report_layers(const std::vector<Window>& untraced,
                   const std::vector<Window>& traced, Report& report) {
  Window sum;  // totals over the traced windows
  MeshClock& clock = sum.clock;
  double steps = 0.0;
  std::vector<double> traced_steps, untraced_steps, alloc_ms;
  std::uint64_t reclaim_hwm = 0;
  const auto counter = [&](const char* name) {
    std::uint64_t n = 0;
    for (const Window& w : traced) n += w.telemetry.counter(name);
    return static_cast<double>(n);
  };
  const auto span_ms = [&](const std::string& suffix) {
    // Spans nest by thread, so a persist stage records under the step's
    // path ("amr.step.pmoctree.persist.merge"); match on the suffix.
    std::uint64_t ns = 0;
    for (const Window& w : traced) {
      for (const auto& [name, h] : w.telemetry.histograms) {
        if (name == suffix || name.ends_with("." + suffix)) ns += h.sum;
      }
    }
    return static_cast<double>(ns) * 1e-6;
  };
  for (const Window& w : traced) {
    steps += static_cast<double>(w.step_ms.size());
    traced_steps.insert(traced_steps.end(), w.step_ms.begin(), w.step_ms.end());
    for (std::size_t i = 0; i < MeshClock::kOps; ++i) {
      clock.ns[i] += w.clock.ns[i];
      clock.calls[i] += w.clock.calls[i];
    }
    sum.self_ns += w.self_ns;
    sum.partition_ns += w.partition_ns;
    sum.migrated += w.migrated;
    sum.ghost_leaves += w.ghost_leaves;
    sum.refined += w.refined;
    sum.coarsened += w.coarsened;
    sum.balance_refined += w.balance_refined;
    sum.leaves_sum += w.leaves_sum;
    sum.sig.eviction_merges += w.sig.eviction_merges;
    sum.device.lines_read += w.device.lines_read;
    sum.device.cached_reads += w.device.cached_reads;
    sum.device.flush_spans += w.device.flush_spans;
    sum.device.modeled_read_ns += w.device.modeled_read_ns;
    sum.device.modeled_write_ns += w.device.modeled_write_ns;
    sum.cache_hits += w.cache_hits;
    sum.cache_misses += w.cache_misses;
    sum.queries.merge(w.queries);
    reclaim_hwm = std::max(reclaim_hwm, w.reclaim_hwm);
  }
  for (const Window& w : untraced) {
    untraced_steps.insert(untraced_steps.end(), w.step_ms.begin(),
                          w.step_ms.end());
  }
  for (const auto* ws : {&untraced, &traced}) {
    for (const Window& w : *ws) alloc_ms.push_back(w.alloc_ms);
  }
  const auto per_step = [&](double total) { return ratio(total, steps); };
  const auto op_ms = [&](MeshOp op) {
    return per_step(static_cast<double>(clock.op_ns(op)) * 1e-6);
  };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  // amr: the droplet workload, its neighbor index and gather kernels.
  report.per_layer("amr.step_self_ms", per_step(d(sum.self_ns) * 1e-6), "ms");
  report.per_layer("amr.neighbor_build_ms", op_ms(MeshOp::kNeighborBuild),
                   "ms");
  report.per_layer("amr.gather_ms", op_ms(MeshOp::kGather), "ms");
  report.per_layer("amr.neighbor.build_probes",
                   per_step(counter("amr.neighbor.build_probes")),
                   "count/step");
  const double builds = counter("amr.neighbor.builds");
  const double reuses = counter("amr.neighbor.reuses");
  report.per_layer("amr.neighbor.reuse_ratio", ratio(reuses, builds + reuses),
                   "ratio");
  report.per_layer("amr.leaves", per_step(d(sum.leaves_sum)), "count");
  report.per_layer("amr.refined", per_step(d(sum.refined)), "count/step");
  report.per_layer("amr.coarsened", per_step(d(sum.coarsened)), "count/step");
  report.per_layer("amr.balance_refined", per_step(d(sum.balance_refined)),
                   "count/step");

  // pmoctree: every MeshBackend call the step makes, and the persist stages.
  report.per_layer("pmoctree.balance_ms", op_ms(MeshOp::kBalance), "ms");
  report.per_layer("pmoctree.extract_soa_ms", op_ms(MeshOp::kExtractSoa), "ms");
  report.per_layer("pmoctree.sweep_ms", op_ms(MeshOp::kSweep), "ms");
  report.per_layer("pmoctree.sweep_pruned_ms", op_ms(MeshOp::kSweepPruned),
                   "ms");
  report.per_layer("pmoctree.refine_ms", op_ms(MeshOp::kRefine), "ms");
  report.per_layer("pmoctree.coarsen_ms", op_ms(MeshOp::kCoarsen), "ms");
  report.per_layer("pmoctree.leaf_count_ms", op_ms(MeshOp::kLeafCount), "ms");
  report.per_layer("pmoctree.visit_ms", op_ms(MeshOp::kVisit), "ms");
  report.per_layer("pmoctree.persist_ms", op_ms(MeshOp::kEndStep), "ms");
  for (const char* stage : {"merge", "compact", "gc", "transform"}) {
    report.per_layer(std::string("pmoctree.persist.") + stage + "_ms",
                     per_step(span_ms(std::string("pmoctree.persist.") +
                                      stage)),
                     "ms");
  }
  report.per_layer("pmoctree.persist.visits",
                   per_step(counter("pmoctree.persist.visits")), "count/step");
  for (const char* c : {"pages", "promotions", "compactions"}) {
    report.per_layer(std::string("pmoctree.linear.") + c,
                     per_step(counter((std::string("pmoctree.linear.") + c)
                                          .c_str())),
                     "count/step");
  }
  report.per_layer("pmoctree.cache.hit_ratio",
                   ratio(d(sum.cache_hits), d(sum.cache_hits + sum.cache_misses)),
                   "ratio");
  report.per_layer("pmoctree.eviction_merges",
                   per_step(d(sum.sig.eviction_merges)), "count/step");

  // nvbm: the emulated device.
  report.per_layer("nvbm.lines_read", per_step(d(sum.device.lines_read)),
                   "lines/step");
  report.per_layer("nvbm.cached_reads", per_step(d(sum.device.cached_reads)),
                   "count/step");
  report.per_layer("nvbm.flush_spans", per_step(d(sum.device.flush_spans)),
                   "count/step");
  report.per_layer("nvbm.modeled_read_ms",
                   per_step(d(sum.device.modeled_read_ns) * 1e-6), "ms");
  report.per_layer("nvbm.modeled_write_ms",
                   per_step(d(sum.device.modeled_write_ns) * 1e-6), "ms");
  report.per_layer("nvbm.device_alloc_ms", median(alloc_ms), "ms");

  // cluster: the Partition routine.
  report.per_layer("cluster.partition_ms",
                   per_step(d(sum.partition_ns) * 1e-6), "ms");
  report.per_layer("cluster.migrated", per_step(d(sum.migrated)),
                   "count/step");
  report.per_layer("cluster.ghost_leaves", per_step(d(sum.ghost_leaves)),
                   "count/step");

  // serve: snapshot readers.
  const QueryLog& q = sum.queries;
  report.per_layer("serve.pin_us", median(q.pin_us), "us");
  for (std::size_t k = 0; k < kQueryKinds.size(); ++k) {
    report.per_layer(std::string("serve.") + kQueryKinds[k] + "_us",
                     median(q.service_us[k]), "us");
  }
  report.per_layer("serve.node_loads_per_query",
                   ratio(d(q.charges.node_loads), d(q.latency_us.size())),
                   "count");
  report.per_layer("serve.cache_hit_ratio",
                   ratio(d(q.cache_hits), d(q.cache_hits + q.cache_misses)),
                   "ratio");
  // Open-loop view: latency from each query's due time, and how late the
  // generator ran. Host scheduling pauses land here in full.
  report.per_layer("serve.due_latency_p99_us", quantile(q.latency_us, 0.99),
                   "us");
  report.per_layer("serve.gen_lag_us",
                   ratio(q.lag_sum_us, d(q.latency_us.size())), "us");
  report.per_layer("serve.staleness_mean",
                   ratio(d(q.stale_sum), d(q.latency_us.size())), "epochs");
  report.per_layer("serve.reclaim_hwm", d(reclaim_hwm), "nodes");

  // telemetry: what the traced run's timing costs.
  const double base = median(untraced_steps);
  report.per_layer("trace.overhead_frac",
                   base > 0 ? median(traced_steps) / base - 1.0 : 0.0, "frac");
}

}  // namespace perfbench
