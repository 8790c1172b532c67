// Tests for the metric time-series sampler (ring budget, decimation,
// driver-thread gating, cross-thread bit-identity of modeled series) and
// the serving SLO tracker (error-budget accounting, burn-rate windows,
// keep-the-worst slow log, tail-based trace sampling on reader-lane
// pids).
#include "telemetry/timeseries.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>
#include <vector>

#include "amr/droplet.hpp"
#include "amr/pm_backend.hpp"
#include "exec/pool.hpp"
#include "serve/slo.hpp"
#include "telemetry/trace.hpp"

namespace pmo::telemetry::timeseries {
namespace {

// Recording-dependent tests: under PMO_TELEMETRY=OFF tick() is a no-op
// and every series stays empty — that surface is covered by
// telemetry_off_test.cpp instead.
#if PMO_TELEMETRY_ENABLED

const json::Value* series_of(const json::Value& dump, const char* name) {
  const json::Value* s = dump.find("series");
  return s != nullptr ? s->find(name) : nullptr;
}

std::vector<double> arr(const json::Value& series, const char* key) {
  std::vector<double> out;
  const json::Value* a = series.find(key);
  if (a == nullptr) return out;
  for (std::size_t i = 0; i < a->size(); ++i) {
    out.push_back(a->at(i).as_double());
  }
  return out;
}

TEST(Timeseries, CounterAndGaugeSampling) {
  Registry reg;
  MetricSampler sampler(reg, {/*capacity=*/16, /*refresh_sources=*/false});
  sampler.add({"c", Kind::kCounter, "t.c", "", 0.0, true});
  sampler.add({"g", Kind::kGauge, "t.g", "", 0.0, true});
  for (int i = 0; i < 4; ++i) {
    reg.counter("t.c").add(10);
    reg.gauge("t.g").set(i);
    sampler.tick();
  }
  EXPECT_EQ(sampler.ticks(), 4u);
  EXPECT_EQ(sampler.series_count(), 2u);
  const auto dump = sampler.to_json();
  const auto* c = series_of(dump, "c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(arr(*c, "t"), (std::vector<double>{0, 1, 2, 3}));
  EXPECT_EQ(arr(*c, "v"), (std::vector<double>{10, 20, 30, 40}));
  const auto* g = series_of(dump, "g");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(arr(*g, "v"), (std::vector<double>{0, 1, 2, 3}));
}

TEST(Timeseries, GaugeSeriesFollowsRepublishedGauge) {
  // Bench bundles publish nvbm.* gauges through a registry source and
  // drop them when the bundle dies; the next bundle re-creates them. The
  // series must read the live gauge, not the retired one.
  Registry reg;
  MetricSampler sampler(reg, {16, /*refresh_sources=*/true});
  sampler.add({"g", Kind::kGauge, "t.g", "", 0.0, true});
  const auto drop = [&reg] { reg.drop_gauges("t."); };
  {
    auto first = reg.register_source(
        [](Registry& r) { r.gauge("t.g").set(1); }, drop);
    sampler.tick();
  }
  auto second =
      reg.register_source([](Registry& r) { r.gauge("t.g").set(2); }, drop);
  sampler.tick();
  const auto dump = sampler.to_json();
  const auto* g = series_of(dump, "g");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(arr(*g, "v"), (std::vector<double>{1, 2}));
}

TEST(Timeseries, RatioSeries) {
  Registry reg;
  MetricSampler sampler(reg, {16, false});
  sampler.add({"hit", Kind::kRatio, "t.hits", "t.misses", 0.0, true});
  sampler.tick();  // 0/0 -> 0
  reg.counter("t.hits").add(3);
  reg.counter("t.misses").add(1);
  sampler.tick();
  const auto dump = sampler.to_json();
  const auto* s = series_of(dump, "hit");
  ASSERT_NE(s, nullptr);
  const auto v = arr(*s, "v");
  ASSERT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[1], 0.75);
  EXPECT_EQ(s->find("metric2")->as_string(), "t.misses");
}

TEST(Timeseries, PercentileSeriesMatchesHistogram) {
  Registry reg;
  auto& h = reg.histogram("t.lat");
  for (std::uint64_t i = 1; i <= 1000; ++i) h.record(i);
  MetricSampler sampler(reg, {16, false});
  sampler.add({"p95", Kind::kPercentile, "t.lat", "", 0.95, false});
  sampler.tick();
  const auto dump = sampler.to_json();
  const auto* s = series_of(dump, "p95");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(arr(*s, "v")[0],
                   static_cast<double>(h.percentile(0.95)));
}

TEST(Timeseries, RateSeriesIsNeverModeled) {
  Registry reg;
  MetricSampler sampler(reg, {16, false});
  // modeled=true must be overridden: rates divide by wall-clock.
  sampler.add({"qps", Kind::kRate, "t.lat", "", 0.0, /*modeled=*/true});
  reg.histogram("t.lat").record(5);
  sampler.tick();
  const auto dump = sampler.to_json();
  const auto* s = series_of(dump, "qps");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->find("modeled")->as_double(), 0.0);
  // First tick has no dt: the rate must be 0, not inf/nan.
  EXPECT_DOUBLE_EQ(arr(*s, "v")[0], 0.0);
}

TEST(Timeseries, DecimationKeepsWholeRunCovered) {
  Registry reg;
  MetricSampler sampler(reg, {/*capacity=*/8, false});
  sampler.add({"g", Kind::kGauge, "t.g", "", 0.0, true});
  const int kTicks = 100;
  for (int i = 0; i < kTicks; ++i) {
    reg.gauge("t.g").set(i);
    sampler.tick();
  }
  const auto dump = sampler.to_json();
  const auto* s = series_of(dump, "g");
  ASSERT_NE(s, nullptr);
  const auto t = arr(*s, "t");
  const auto v = arr(*s, "v");
  const auto stride =
      static_cast<std::uint64_t>(s->find("stride")->as_double());
  ASSERT_EQ(t.size(), v.size());
  EXPECT_LE(t.size(), 8u);
  EXPECT_GE(t.size(), 3u);
  // Stride is a power of two and every retained point sits on it.
  EXPECT_EQ(stride & (stride - 1), 0u);
  EXPECT_GT(stride, 1u);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(static_cast<std::uint64_t>(t[i]) % stride, 0u);
    // Gauge was set to the tick index before each tick: v == t.
    EXPECT_DOUBLE_EQ(v[i], t[i]);
    if (i > 0) {
      EXPECT_GT(t[i], t[i - 1]);
    }
  }
  // The run's start AND tail stay represented (no truncation).
  EXPECT_DOUBLE_EQ(t.front(), 0.0);
  EXPECT_GE(t.back(), static_cast<double>(kTicks - 1) -
                          static_cast<double>(2 * stride));
}

TEST(Timeseries, WriteFileRoundTrips) {
  Registry reg;
  MetricSampler sampler(reg, {16, false});
  sampler.add({"c", Kind::kCounter, "t.c", "", 0.0, true});
  reg.counter("t.c").add(7);
  sampler.tick();
  const std::string path = ::testing::TempDir() + "timeseries_test.json";
  ASSERT_TRUE(sampler.write_file(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  std::string err;
  const auto doc = json::Value::parse(buf.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->find("ticks")->as_double(), 1.0);
  EXPECT_DOUBLE_EQ(arr(*series_of(*doc, "c"), "v")[0], 7.0);
  std::remove(path.c_str());
}

TEST(Timeseries, TickPointFiresOnlyOnDriverThreadOutsideTasks) {
  Registry reg;
  MetricSampler sampler(reg, {16, false});
  sampler.add({"c", Kind::kCounter, "t.c", "", 0.0, true});
  sampler.install_on_current_thread();
  ASSERT_EQ(MetricSampler::installed(), &sampler);

  tick_point();  // driver thread, not in a task: fires
  EXPECT_EQ(sampler.ticks(), 1u);

  std::thread other([] { tick_point(); });  // foreign thread: gated
  other.join();
  EXPECT_EQ(sampler.ticks(), 1u);

  // Inside a pool task the gate holds even for the caller's inline
  // share — which thread runs a task is scheduling, and scheduling must
  // not shape a modeled series.
  exec::ThreadPool pool(2);
  pool.parallel_for(8, [](std::size_t) { tick_point(); });
  EXPECT_EQ(sampler.ticks(), 1u);

  MetricSampler::uninstall();
  tick_point();
  EXPECT_EQ(sampler.ticks(), 1u);
  EXPECT_EQ(MetricSampler::installed(), nullptr);
}

TEST(Timeseries, DestructorUninstallsItself) {
  Registry reg;
  {
    MetricSampler sampler(reg, {16, false});
    sampler.install_on_current_thread();
    ASSERT_EQ(MetricSampler::installed(), &sampler);
  }
  EXPECT_EQ(MetricSampler::installed(), nullptr);
  // ... but a replaced sampler's destructor must not evict its
  // replacement.
  MetricSampler a(reg, {16, false});
  {
    MetricSampler b(reg, {16, false});
    b.install_on_current_thread();
    a.install_on_current_thread();  // replaces b
  }  // b dies; a stays installed
  EXPECT_EQ(MetricSampler::installed(), &a);
  MetricSampler::uninstall();
}

// The determinism contract, end to end: modeled counter series sampled
// at library tick points (droplet step end + persist) are bit-identical
// no matter how many exec workers the backend fans out to. Values are
// compared as deltas against the pre-run counter state because the
// global registry accumulates across in-process runs.
TEST(Timeseries, ModeledSeriesBitIdenticalAcrossThreads) {
  static const char* kMetrics[] = {"amr.steps", "amr.refined",
                                   "amr.coarsened"};
  struct RunOut {
    std::vector<double> t;
    std::vector<std::vector<double>> dv;
  };
  const auto run = [&](int threads) {
    auto& reg = Registry::global();
    std::vector<double> base;
    for (const char* m : kMetrics) {
      base.push_back(static_cast<double>(reg.counter(m).value()));
    }
    MetricSampler sampler(reg, {64, /*refresh_sources=*/false});
    for (const char* m : kMetrics) {
      sampler.add({m, Kind::kCounter, m, "", 0.0, true});
    }
    sampler.install_on_current_thread();

    nvbm::Config cfg;
    cfg.latency_mode = nvbm::LatencyMode::kModeled;
    nvbm::Device dev(512 << 20, cfg);
    amr::PmOctreeBackend mesh(dev, pmoctree::PmConfig{});
    amr::DropletParams p;
    p.min_level = 1;
    p.max_level = 3;
    amr::DropletWorkload wl(p);
    wl.initialize(mesh);
    exec::ThreadPool pool(threads);
    wl.set_exec(&pool);
    for (int s = 0; s < 3; ++s) wl.step(mesh, s, /*persist=*/true);
    MetricSampler::uninstall();

    RunOut out;
    const auto dump = sampler.to_json();
    for (std::size_t m = 0; m < std::size(kMetrics); ++m) {
      const auto* s = series_of(dump, kMetrics[m]);
      EXPECT_NE(s, nullptr);
      if (s == nullptr) continue;
      if (m == 0) out.t = arr(*s, "t");
      auto v = arr(*s, "v");
      for (double& x : v) x -= base[m];
      out.dv.push_back(std::move(v));
    }
    return out;
  };

  const RunOut a = run(1);
  const RunOut b = run(4);
  EXPECT_GE(a.t.size(), 3u);  // one tick per step at minimum
  EXPECT_EQ(a.t, b.t);
  ASSERT_EQ(a.dv.size(), b.dv.size());
  for (std::size_t m = 0; m < a.dv.size(); ++m) {
    EXPECT_EQ(a.dv[m], b.dv[m]) << kMetrics[m];
  }
}

#endif  // PMO_TELEMETRY_ENABLED

}  // namespace
}  // namespace pmo::telemetry::timeseries

// ---- SLO tracker -----------------------------------------------------------

namespace pmo::serve {
namespace {

SloConfig cfg_1us() {
  SloConfig cfg;
  cfg.latency_objective_ns = 1000;
  cfg.objective_quantile = 0.99;  // budget derives to 0.01
  return cfg;
}

TEST(Slo, DerivesBudgetAndSlowThreshold) {
  telemetry::Registry reg;
  SloTracker slo(reg, cfg_1us());
  EXPECT_NEAR(slo.error_budget(), 0.01, 1e-12);
  EXPECT_EQ(slo.slow_threshold_ns(), 4000u);
  SloConfig cfg = cfg_1us();
  cfg.error_budget = 0.2;
  cfg.slow_query_ns = 9000;
  SloTracker slo2(reg, cfg);
  EXPECT_DOUBLE_EQ(slo2.error_budget(), 0.2);
  EXPECT_EQ(slo2.slow_threshold_ns(), 9000u);
}

TEST(Slo, ClassifiesViolationsAndBudget) {
  telemetry::Registry reg;
  SloConfig cfg = cfg_1us();
  cfg.error_budget = 0.5;
  SloTracker slo(reg, cfg);
  ReadCharges ch;
  slo.observe(0, "point", 0, 500, ch, 0);   // within objective
  slo.observe(0, "point", 0, 1500, ch, 0);  // violation
  slo.observe(0, "box", 0, 800, ch, 0);     // within
  slo.observe(0, "box", 0, 2000, ch, 0);    // violation
  EXPECT_EQ(slo.total(), 4u);
  EXPECT_EQ(slo.violations(), 2u);
  // frac 0.5 of a 0.5 budget: everything spent, exactly 0 remaining.
  EXPECT_DOUBLE_EQ(slo.budget_remaining(), 0.0);
#if PMO_TELEMETRY_ENABLED
  EXPECT_EQ(reg.counter("serve.slo.violations").value(), 2u);
#endif
}

TEST(Slo, BurnRateIsWindowed) {
  telemetry::Registry reg;
  SloTracker slo(reg, cfg_1us());  // budget 0.01
  ReadCharges ch;
  for (int i = 0; i < 99; ++i) slo.observe(0, "point", 0, 100, ch, 0);
  slo.observe(0, "point", 0, 2000, ch, 0);
  slo.tick();
  // 1 violation in 100: burning exactly at budget. (NEAR: the budget
  // derives from 1.0 - 0.99, which is not exactly 0.01 in binary.)
  EXPECT_NEAR(slo.burn_rate(), 1.0, 1e-9);
  for (int i = 0; i < 97; ++i) slo.observe(0, "point", 0, 100, ch, 0);
  for (int i = 0; i < 3; ++i) slo.observe(0, "point", 0, 2000, ch, 0);
  slo.tick();
  // This window burned 3x the budget; the gauge mirrors it.
  EXPECT_NEAR(slo.burn_rate(), 3.0, 1e-9);
#if PMO_TELEMETRY_ENABLED
  EXPECT_NEAR(reg.gauge("serve.slo.burn_rate").value(), 3.0, 1e-9);
#endif
  EXPECT_EQ(slo.ticks(), 2u);
}

TEST(Slo, TickPublishesInterpolatedPercentileGauge) {
  telemetry::Registry reg;
  auto& h = reg.histogram("serve.query_ns");
  for (std::uint64_t i = 1; i <= 1000; ++i) h.record(i);
  SloTracker slo(reg, cfg_1us());
  slo.tick();
  EXPECT_DOUBLE_EQ(reg.gauge("serve.slo.p_ns").value(),
                   static_cast<double>(h.percentile(0.99)));
}

TEST(Slo, SlowLogKeepsTheWorst) {
  telemetry::Registry reg;
  SloConfig cfg = cfg_1us();
  cfg.slow_query_ns = 4000;
  cfg.slow_log_capacity = 2;
  SloTracker slo(reg, cfg);
  ReadCharges ch;
  ch.node_loads = 11;
  slo.observe(1, "box", 10, 5000, ch, 2);
  slo.observe(2, "point", 20, 7000, ch, 0);
  slo.observe(3, "neighbors", 30, 6000, ch, 1);
  slo.observe(4, "point", 40, 100, ch, 0);  // fast: never logged
  EXPECT_EQ(slo.tail_sampled(), 3u);
  const auto log = slo.slow_queries();
  ASSERT_EQ(log.size(), 2u);  // capacity bound, worst first
  EXPECT_EQ(log[0].dur_ns, 7000u);
  EXPECT_EQ(log[0].lane, 2u);
  EXPECT_EQ(log[1].dur_ns, 6000u);
  EXPECT_EQ(log[1].kind, "neighbors");
  EXPECT_EQ(log[1].charges.node_loads, 11u);
}

TEST(Slo, ToJsonShape) {
  telemetry::Registry reg;
  SloTracker slo(reg, cfg_1us());
  ReadCharges ch;
  slo.observe(0, "point", 0, 5000, ch, 0);
  slo.tick();
  const auto j = slo.to_json();
  EXPECT_EQ(j.find("total")->as_double(), 1.0);
  EXPECT_EQ(j.find("violations")->as_double(), 1.0);
  EXPECT_EQ(j.find("tail_sampled")->as_double(), 1.0);
  EXPECT_NE(j.find("budget_remaining"), nullptr);
  EXPECT_NE(j.find("burn_rate"), nullptr);
  EXPECT_NE(j.find("p_ns"), nullptr);
  const auto* obj = j.find("objective");
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->find("latency_ns")->as_double(), 1000.0);
  EXPECT_EQ(obj->find("slow_query_ns")->as_double(), 4000.0);
  ASSERT_NE(j.find("slow_queries"), nullptr);
  EXPECT_EQ(j.find("slow_queries")->size(), 1u);
  EXPECT_EQ(j.find("slow_queries")->at(0).find("kind")->as_string(),
            "point");
}

#if PMO_TELEMETRY_ENABLED

// Tail-based sampling contract: the retroactive slice pair lands on the
// owning reader lane's trace track (kServeReaderPidBase + lane) with the
// charge breakdown as args, and the exported trace stays structurally
// valid (B/E pairing per track survives the retroactive timestamps).
TEST(Slo, TailSampleLandsOnReaderLanePid) {
  namespace trace = telemetry::trace;
  telemetry::Registry reg;
  SloConfig cfg = cfg_1us();
  cfg.slow_query_ns = 4000;
  SloTracker slo(reg, cfg);

  trace::TraceSession session;
  const std::uint64_t t0 = trace::now_ns();
  ReadCharges ch;
  ch.lines_read = 99;
  slo.observe(/*lane=*/5, "interface", t0, 5000, ch, 3);
  slo.observe(/*lane=*/5, "point", t0, 10, ch, 0);  // fast: no events
  session.stop();

  std::ostringstream out;
  session.write(out);
  std::string err;
  const auto doc = telemetry::json::Value::parse(out.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const auto check = trace::validate_chrome_trace(*doc);
  EXPECT_TRUE(check.ok) << check.error;

  const auto* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::size_t slo_events = 0;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const auto& ev = events->at(i);
    const auto* cat = ev.find("cat");
    if (cat == nullptr || !cat->is_string() ||
        cat->as_string() != "slo") {
      continue;
    }
    ++slo_events;
    EXPECT_EQ(ev.find("pid")->as_double(),
              static_cast<double>(trace::kServeReaderPidBase + 5));
    EXPECT_EQ(ev.find("name")->as_string(), "serve.slow.interface");
    if (ev.find("ph")->as_string() == "B") {
      const auto* args = ev.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->find("lines_read")->as_double(), 99.0);
      EXPECT_EQ(args->find("staleness")->as_double(), 3.0);
    }
  }
  EXPECT_EQ(slo_events, 2u);  // exactly one B/E pair, fast query silent
}

#endif  // PMO_TELEMETRY_ENABLED

}  // namespace
}  // namespace pmo::serve
