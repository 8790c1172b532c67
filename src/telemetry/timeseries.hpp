// Metric time-series: step-driven sampling of Registry metrics into
// fixed-budget ring-buffered series.
//
// The registry answers "what is the value now"; benches so far exported
// exactly one end-of-run snapshot, so every trajectory (lines written per
// step, cache hit rate warming up, reclamation high-water mark growing
// under reader pins) collapsed to a scalar. MetricSampler keeps the time
// dimension: each tick() snapshots the selected counters / gauges /
// histogram percentiles into per-series (t, v) arrays with a hard point
// budget — when a series fills its budget, every other retained point is
// dropped and the sampling stride doubles (classic decimating flight
// recorder: the whole run stays covered at decreasing resolution instead
// of truncating the tail).
//
// Sampling is STEP-driven, never timer-driven, for determinism: ticks
// happen at simulation-meaningful points (droplet step end, persist(),
// bench_serve's pacing loop), so a modeled series' (t, v) pairs are a
// pure function of the workload. Wall-clock-derived kinds (kRate) and
// series sampled while racing readers exist are flagged modeled=false so
// tools/benchdiff knows not to expect bit-identity.
//
// Two ways to drive a sampler:
//  * explicitly — sampler.tick() wherever the owner wants a sample (the
//    bench_serve mutator paces one tick per step);
//  * via the global hook — install_on_current_thread() registers the
//    sampler process-wide and makes the installing thread the *driver*;
//    library sampling points (timeseries::tick_point() in the droplet
//    solve loop and PmOctree::persist()) then tick it. tick_point() fires
//    only on the driver thread and never inside an exec parallel task, so
//    worker-lane replicas (cluster measurement, serve tasks) cannot make
//    the tick sequence depend on scheduling — that keeps modeled series
//    bit-identical across --threads by construction.
//
// Under PMO_TELEMETRY=OFF everything compiles to (nearly) nothing:
// tick_point() is an inline no-op, tick() returns immediately, and
// to_json() still emits every registered series with empty point arrays
// so bench JSON stays schema-valid with recording compiled out.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace pmo::telemetry::timeseries {

/// How a series derives its sample from the registry.
enum class Kind {
  kCounter,     ///< cumulative counter value
  kGauge,       ///< last-written gauge value
  kRatio,       ///< metric / (metric + metric2), both counters (hit rates)
  kPercentile,  ///< interpolated histogram percentile (Histogram::percentile)
  kRate,        ///< histogram count delta per wall-clock second (QPS);
                ///< wall-clock-derived, so never modeled
};

const char* kind_name(Kind k) noexcept;

struct SeriesSpec {
  std::string name;    ///< series key in the export ("serve.qps")
  Kind kind = Kind::kCounter;
  std::string metric;  ///< registry metric sampled
  std::string metric2; ///< kRatio only: the denominator's second term
  double percentile = 0.99;  ///< kPercentile only
  /// True when every sampled value is a modeled quantity at a
  /// deterministic tick: benchdiff exact-matches modeled series and
  /// only eyeballs the rest. kRate series are never modeled.
  bool modeled = false;
};

struct SamplerOptions {
  /// Hard per-series point budget; when full, retained points decimate
  /// 2:1 and the stride doubles. Minimum 8.
  std::size_t capacity = 256;
  /// Run Registry::refresh_sources() before sampling each tick so
  /// pull-mode gauges (nvbm.* device state) are current.
  bool refresh_sources = true;
};

class MetricSampler {
 public:
  using Options = SamplerOptions;

  explicit MetricSampler(Registry& reg, Options opts = {});
  ~MetricSampler();

  MetricSampler(const MetricSampler&) = delete;
  MetricSampler& operator=(const MetricSampler&) = delete;

  /// Registers a series. Find-or-creates the metric eagerly; counters
  /// and histograms stay resolved, gauges are looked up by name at each
  /// tick because Registry::drop_gauges() can retire them. Not
  /// thread-safe against a concurrent tick(); register everything before
  /// sampling starts.
  void add(SeriesSpec spec);

  /// Samples every series now. Single-driver contract: all tick() calls
  /// must be externally ordered (one logical driver thread at a time);
  /// the registry reads themselves are thread-safe against concurrent
  /// metric writers.
  void tick();

  std::uint64_t ticks() const noexcept;
  std::size_t series_count() const noexcept;
  std::size_t capacity() const noexcept;

  /// {"ticks": N, "capacity": C, "series": {name: {kind, metric,
  ///  modeled, stride, t: [...], v: [...]}}} — series in registration
  /// order, t in tick indices.
  json::Value to_json() const;
  /// to_json() to a file; false (with a message on stderr) on failure.
  bool write_file(const std::string& path) const;

  /// Installs this sampler as the process-wide tick_point() target and
  /// makes the calling thread the driver. At most one sampler is
  /// installed at a time (a second install replaces the first);
  /// destruction uninstalls automatically.
  void install_on_current_thread();
  static void uninstall();
  /// The installed sampler, if any (test hook).
  static MetricSampler* installed() noexcept;

 private:
  friend void detail_tick_point();

  struct Series {
    SeriesSpec spec;
    // Resolved once at add(); counter and histogram references are
    // stable for the registry's lifetime (gauges are not: see add()).
    const Counter* counter = nullptr;
    const Counter* counter2 = nullptr;
    const Histogram* hist = nullptr;
    std::uint64_t stride = 1;
    std::uint64_t prev_count = 0;  ///< kRate: histogram count at last tick
    std::vector<double> t;
    std::vector<double> v;
  };

  double sample(Series& s, double dt_s);

  Registry& reg_;
  Options opts_;
  std::vector<Series> series_;
  std::uint64_t ticks_ = 0;
  std::uint64_t last_tick_wall_ns_ = 0;  ///< kRate dt source
  std::thread::id driver_;
};

namespace detail {
#if PMO_TELEMETRY_ENABLED
extern std::atomic<MetricSampler*> g_installed;
#endif
}  // namespace detail

/// Out-of-line slow path of tick_point(): re-checks the installed
/// sampler, the driver thread and exec::in_parallel_task().
void detail_tick_point();

/// Library sampling point — the droplet solve loop and persist() call
/// this unconditionally. One relaxed atomic load when no sampler is
/// installed; compiled out entirely under PMO_TELEMETRY=OFF.
inline void tick_point() noexcept {
#if PMO_TELEMETRY_ENABLED
  if (detail::g_installed.load(std::memory_order_acquire) != nullptr) {
    detail_tick_point();
  }
#endif
}

}  // namespace pmo::telemetry::timeseries
