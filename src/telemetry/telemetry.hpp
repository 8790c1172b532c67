// Unified metrics and tracing substrate.
//
// Every layer of the repo publishes its accounting here instead of growing
// private counter structs: the NVBM device registers its access/wear
// counters, PM-octree counts CoW copies / twin reuse / merges / GC sweeps,
// the cluster simulator accumulates the per-routine breakdown of Figs. 7
// and 8b, and the bench harness snapshots the registry into BENCH_*.json.
// p4est-style AMR stacks ship the same kind of built-in per-algorithm
// statistics layer; this is ours.
//
// Three metric kinds, hierarchical dot-separated names:
//  * Counter   — monotonically increasing u64 ("nvbm.writes",
//                "pmoctree.cow_copies", "cluster.routine.balance_ns").
//  * Gauge     — last-written double ("nvbm.mean_wear").
//  * Histogram — log2-bucketed value distribution, used for span
//                durations ("pmoctree.persist" nanoseconds).
//
// Increment paths are relaxed atomics: thread-safe-enough for concurrent
// writers, no ordering guarantees between metrics (export may observe a
// torn *set* of metrics, never a torn value). Name lookup takes a mutex —
// call sites on hot paths cache the returned reference once (metrics are
// never deallocated while their registry lives; drop_gauges() retires a
// gauge from the namespace but keeps the object alive for stale cached
// references). The whole Registry API — lookup, snapshot(), source
// registration/reset, drop_gauges() — is safe to call concurrently from
// any thread; src/exec worker threads publish through it directly.
//
// Compile-time kill switch: building with -DPMO_TELEMETRY_ENABLED=0 (the
// PMO_TELEMETRY=OFF CMake option) turns every increment, record and span
// into a no-op while keeping the full API, so instrumented code needs no
// #ifdefs and the overhead of the enabled build can be measured against a
// true zero baseline (micro_ops acceptance bound: within 5%).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/json.hpp"

#ifndef PMO_TELEMETRY_ENABLED
#define PMO_TELEMETRY_ENABLED 1
#endif

namespace pmo::telemetry {

/// True when the library was compiled with telemetry recording enabled.
constexpr bool enabled() noexcept { return PMO_TELEMETRY_ENABLED != 0; }

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
#if PMO_TELEMETRY_ENABLED
    v_.fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) noexcept {
#if PMO_TELEMETRY_ENABLED
    v_.store(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Log2-bucketed histogram: bucket b counts values whose bit width is b,
/// i.e. value v lands in bucket floor(log2(v))+1 (v=0 in bucket 0), so
/// bucket b spans [2^(b-1), 2^b). Tracks count/sum/min/max exactly.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void record(std::uint64_t v) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  std::uint64_t min() const noexcept;  ///< 0 when empty
  std::uint64_t max() const noexcept;  ///< 0 when empty
  std::uint64_t bucket_count(int b) const noexcept {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  double mean() const noexcept;
  /// Inclusive upper bound (2^b - 1) of the bucket holding the
  /// p-quantile, 0<=p<=1. Approximate by construction; exact min/max
  /// come from min()/max().
  std::uint64_t percentile_bound(double p) const noexcept;
  /// Interpolated p-quantile, 0<=p<=1: locates the bucket holding the
  /// rank like percentile_bound, then places the rank linearly inside
  /// the bucket's [2^(b-1), 2^b) value range, clamped to the recorded
  /// [min, max]. Exact for distributions that fill their buckets with
  /// consecutive integers (e.g. uniform); never quantizes the tail to a
  /// power of two the way percentile_bound does.
  std::uint64_t percentile(double p) const noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

/// Immutable copy of a histogram's state at snapshot time.
struct HistogramView {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::vector<std::pair<int, std::uint64_t>> buckets;  ///< nonzero only

  double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Same interpolated estimate as Histogram::percentile, over the
  /// snapshotted bucket list.
  std::uint64_t percentile(double p) const noexcept;
};

/// Point-in-time copy of every metric in a registry. Snapshots subtract
/// (delta) so benches can report per-step / per-phase numbers.
class Snapshot {
 public:
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramView> histograms;

  std::uint64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  const HistogramView* histogram(const std::string& name) const;

  /// Metric-wise difference: counters and histogram counts/sums subtract
  /// (clamped at 0); gauges keep *this* snapshot's (newer) value;
  /// histogram min/max also keep the newer values (they cannot subtract).
  Snapshot delta(const Snapshot& since) const;
};

/// Named-metric registry. One process-wide instance (global()) serves the
/// library; tests may instantiate private registries.
class Registry {
 public:
  static Registry& global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create. The returned reference stays valid for the life of
  /// the registry; hot call sites cache it.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);
  /// Lookup without creation: nullptr when no gauge of that name is in
  /// the namespace (never published, or removed by drop_gauges()).
  const Gauge* find_gauge(std::string_view name) const;

  /// RAII registration of a pull-mode metric source. The callback runs at
  /// every snapshot()/refresh_sources() and typically writes gauges (e.g.
  /// the NVBM device republishing its counter struct). The source is
  /// unregistered when the returned handle dies, so objects with shorter
  /// lifetime than the registry can publish safely.
  class Source {
   public:
    Source() = default;
    Source(Source&& o) noexcept { *this = std::move(o); }
    Source& operator=(Source&& o) noexcept;
    ~Source() { reset(); }
    void reset();

   private:
    friend class Registry;
    Registry* reg_ = nullptr;
    std::uint64_t id_ = 0;
    /// Runs once when the handle dies (after unregistering, outside the
    /// registry lock). Stored in the handle — not the registry — so
    /// Registry::clear() cannot orphan it. Typical use: drop the gauges
    /// the source published, so a later snapshot doesn't keep reporting a
    /// dead object's last values (see bench_common::make_bundle).
    std::function<void()> cleanup_;
  };
  Source register_source(std::function<void(Registry&)> fill,
                         std::function<void()> cleanup = {});
  /// Runs every registered source callback (snapshot() does this itself).
  /// Fills run under the source lock, so a Source handle dying on another
  /// thread blocks until in-flight fills finish — a fill can never run
  /// against an already-destroyed publisher. Consequence: a fill must not
  /// call snapshot()/refresh_sources() or touch Source handles itself.
  void refresh_sources();

  /// Removes every gauge whose name starts with `prefix` from the
  /// namespace (a later snapshot no longer reports it). Counters and
  /// histograms are left alone (they are cumulative by contract); gauges
  /// are last-written values, so a gauge outliving its writer reports a
  /// ghost. Cached Gauge references stay VALID: the dropped objects are
  /// retired to a graveyard freed only by clear(), so a concurrent
  /// set() on a stale reference is harmless (it updates an unreachable
  /// object) instead of a use-after-free.
  void drop_gauges(std::string_view prefix);

  Snapshot snapshot();

  /// Drops every metric and source. Test isolation helper; never call
  /// while cached metric references are still in use.
  void clear();

 private:
  // Two independent locks: mu_ guards the metric maps, sources_mu_ guards
  // the source list and is HELD WHILE FILLS RUN (fills take mu_ through
  // counter()/gauge(), so sources_mu_ must never be acquired while
  // holding mu_).
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  /// Gauges removed by drop_gauges(): unreachable by name but kept alive
  /// for cached references. Freed by clear().
  std::vector<std::unique_ptr<Gauge>> retired_gauges_;
  mutable std::mutex sources_mu_;
  std::uint64_t next_source_ = 1;
  std::vector<std::pair<std::uint64_t, std::function<void(Registry&)>>>
      sources_;
};

/// RAII tracing span: records the scope's wall-clock nanoseconds into a
/// histogram named by the span path. Spans nest per thread — a Span
/// constructed while another is live on the same thread appends its name
/// to the parent's path ("pmoctree.persist" + "gc" ->
/// "pmoctree.persist.gc"), so phase structure is captured at source.
class Span {
 public:
  explicit Span(std::string_view name)
      : Span(Registry::global(), name) {}
  Span(Registry& reg, std::string_view name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Dot-joined path of the innermost live span on this thread ("" when
  /// none). Exposed for tests and log correlation.
  static const std::string& current_path();

 private:
#if PMO_TELEMETRY_ENABLED
  Registry& reg_;
  std::string prev_path_;  ///< parent path to restore on exit
  std::uint64_t start_ns_;
  bool traced_ = false;  ///< emitted a trace begin (session was active)
#endif
};

// ---- exporters ------------------------------------------------------------

/// Pretty-prints a snapshot as fixed-width tables (counters & gauges, then
/// histograms), for humans.
void write_table(const Snapshot& snap, std::ostream& os);

/// Structured export: {"counters": {...}, "gauges": {...},
/// "histograms": {name: {count, sum, min, max, mean, buckets}}}. Key order
/// is sorted (std::map iteration), so output is stable across runs.
json::Value to_json(const Snapshot& snap);

/// to_json + dump to a stream.
void write_json(const Snapshot& snap, std::ostream& os);

}  // namespace pmo::telemetry
