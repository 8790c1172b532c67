#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <ostream>

#include "common/stats.hpp"
#include "telemetry/trace.hpp"

namespace pmo::telemetry {

#if PMO_TELEMETRY_ENABLED
namespace {

std::uint64_t wall_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

thread_local std::string t_span_path;

}  // namespace
#endif

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

void Histogram::record(std::uint64_t v) noexcept {
#if PMO_TELEMETRY_ENABLED
  // bit_width(v) is 64 for v >= 2^63; fold those into the last bucket
  // instead of indexing past the array.
  const int b =
      v == 0 ? 0
             : std::min(static_cast<int>(std::bit_width(v)), kBuckets - 1);
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
#else
  (void)v;
#endif
}

std::uint64_t Histogram::min() const noexcept {
  const auto v = min_.load(std::memory_order_relaxed);
  return v == ~std::uint64_t{0} ? 0 : v;
}

std::uint64_t Histogram::max() const noexcept {
  return max_.load(std::memory_order_relaxed);
}

double Histogram::mean() const noexcept {
  const auto n = count();
  return n == 0 ? 0.0
                : static_cast<double>(sum()) / static_cast<double>(n);
}

std::uint64_t Histogram::percentile_bound(double p) const noexcept {
  const auto n = count();
  if (n == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(
      p * static_cast<double>(n - 1)) + 1;
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += bucket_count(b);
    if (seen >= rank)
      return b == 0 ? 0 : (std::uint64_t{1} << b) - 1;
  }
  return max();
}

namespace {

/// Shared by Histogram::percentile and HistogramView::percentile. Walks
/// the (bucket, count) list to the bucket holding the p-rank, then
/// interpolates: log2 bucket b >= 1 holds `cnt` samples somewhere in
/// [2^(b-1), 2^b); assuming they are evenly spaced, the k-th (1-based)
/// of them sits at lo + (k-1) * width / cnt. That is exact when the
/// bucket is filled by consecutive integers (uniform distributions) and
/// within half a step otherwise; the clamp to [min, max] keeps the
/// estimate inside the observed range at both tails.
std::uint64_t interpolated_percentile(
    const std::vector<std::pair<int, std::uint64_t>>& buckets,
    std::uint64_t n, std::uint64_t mn, std::uint64_t mx, double p) noexcept {
  if (n == 0) return 0;
  p = std::min(1.0, std::max(0.0, p));
  const auto rank = static_cast<std::uint64_t>(
      p * static_cast<double>(n - 1)) + 1;
  std::uint64_t seen = 0;
  for (const auto& [b, cnt] : buckets) {
    if (cnt == 0) continue;
    if (seen + cnt < rank) {
      seen += cnt;
      continue;
    }
    if (b == 0) return std::max<std::uint64_t>(mn, 0);
    const double lo = std::ldexp(1.0, b - 1);
    const double width = lo;  // bucket b spans [2^(b-1), 2^b)
    const std::uint64_t k = rank - seen;  // 1-based rank inside bucket
    double v = lo + static_cast<double>(k - 1) * width /
                        static_cast<double>(cnt);
    const double dmn = static_cast<double>(mn);
    const double dmx = static_cast<double>(mx);
    if (v < dmn) v = dmn;
    if (v > dmx) v = dmx;
    // Doubles stop resolving integers near 2^63; saturate to max()
    // instead of overflowing the cast.
    if (v >= 9.2e18) return mx;
    return static_cast<std::uint64_t>(std::llround(v));
  }
  return mx;
}

}  // namespace

std::uint64_t Histogram::percentile(double p) const noexcept {
  std::vector<std::pair<int, std::uint64_t>> buckets;
  for (int b = 0; b < kBuckets; ++b) {
    const auto n = bucket_count(b);
    if (n != 0) buckets.emplace_back(b, n);
  }
  return interpolated_percentile(buckets, count(), min(), max(), p);
}

std::uint64_t HistogramView::percentile(double p) const noexcept {
  return interpolated_percentile(buckets, count, min, max, p);
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

std::uint64_t Snapshot::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double Snapshot::gauge(const std::string& name) const {
  const auto it = gauges.find(name);
  return it == gauges.end() ? 0.0 : it->second;
}

const HistogramView* Snapshot::histogram(const std::string& name) const {
  const auto it = histograms.find(name);
  return it == histograms.end() ? nullptr : &it->second;
}

Snapshot Snapshot::delta(const Snapshot& since) const {
  Snapshot out;
  for (const auto& [name, v] : counters) {
    const auto base = since.counter(name);
    out.counters[name] = v > base ? v - base : 0;
  }
  out.gauges = gauges;
  for (const auto& [name, h] : histograms) {
    HistogramView d = h;
    if (const auto* base = since.histogram(name)) {
      d.count = h.count > base->count ? h.count - base->count : 0;
      d.sum = h.sum > base->sum ? h.sum - base->sum : 0;
      std::map<int, std::uint64_t> buckets;
      for (const auto& [b, n] : h.buckets) buckets[b] = n;
      for (const auto& [b, n] : base->buckets) {
        auto it = buckets.find(b);
        if (it == buckets.end()) continue;
        it->second = it->second > n ? it->second - n : 0;
        if (it->second == 0) buckets.erase(it);
      }
      d.buckets.assign(buckets.begin(), buckets.end());
    }
    out.histograms[name] = std::move(d);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard lk(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard lk(mu_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>())
              .first->second;
}

const Gauge* Registry::find_gauge(std::string_view name) const {
  std::lock_guard lk(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard lk(mu_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  return *histograms_
              .emplace(std::string(name), std::make_unique<Histogram>())
              .first->second;
}

Registry::Source& Registry::Source::operator=(Source&& o) noexcept {
  if (this != &o) {
    reset();
    reg_ = o.reg_;
    id_ = o.id_;
    cleanup_ = std::move(o.cleanup_);
    o.reg_ = nullptr;
    o.id_ = 0;
    o.cleanup_ = nullptr;
  }
  return *this;
}

void Registry::Source::reset() {
  if (reg_ == nullptr) return;
  {
    // sources_mu_ is held by refresh_sources() for the whole fill pass,
    // so once this erase returns no fill can still be running against
    // the publisher that owns this handle (typically a device about to
    // be destroyed).
    std::lock_guard lk(reg_->sources_mu_);
    auto& sources = reg_->sources_;
    for (auto it = sources.begin(); it != sources.end(); ++it) {
      if (it->first == id_) {
        sources.erase(it);
        break;
      }
    }
  }
  reg_ = nullptr;
  id_ = 0;
  if (cleanup_) {
    // Outside the lock: the cleanup typically calls back into the
    // registry (drop_gauges).
    auto fn = std::move(cleanup_);
    cleanup_ = nullptr;
    fn();
  }
}

Registry::Source Registry::register_source(
    std::function<void(Registry&)> fill, std::function<void()> cleanup) {
  Source handle;
  handle.reg_ = this;
  handle.cleanup_ = std::move(cleanup);
  {
    std::lock_guard lk(sources_mu_);
    handle.id_ = next_source_++;
    sources_.emplace_back(handle.id_, std::move(fill));
  }
  return handle;
}

void Registry::drop_gauges(std::string_view prefix) {
  std::lock_guard lk(mu_);
  for (auto it = gauges_.begin(); it != gauges_.end();) {
    if (it->first.size() >= prefix.size() &&
        it->first.compare(0, prefix.size(), prefix) == 0) {
      // Retire, don't destroy: another thread may hold a cached
      // reference from before the drop (see the header contract).
      retired_gauges_.push_back(std::move(it->second));
      it = gauges_.erase(it);
    } else {
      ++it;
    }
  }
}

void Registry::refresh_sources() {
  // Fills run under sources_mu_ (not mu_ — they take mu_ themselves via
  // counter()/gauge()), so Source::reset() on another thread blocks
  // until the pass completes instead of destroying a publisher that a
  // copied-out callback is about to call.
  std::lock_guard lk(sources_mu_);
  for (const auto& [id, fn] : sources_) fn(*this);
}

Snapshot Registry::snapshot() {
  refresh_sources();
  Snapshot out;
  std::lock_guard lk(mu_);
  for (const auto& [name, c] : counters_) out.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) out.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    HistogramView v;
    v.count = h->count();
    v.sum = h->sum();
    v.min = h->min();
    v.max = h->max();
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      const auto n = h->bucket_count(b);
      if (n != 0) v.buckets.emplace_back(b, n);
    }
    out.histograms[name] = std::move(v);
  }
  return out;
}

void Registry::clear() {
  {
    std::lock_guard lk(sources_mu_);
    sources_.clear();
  }
  std::lock_guard lk(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  retired_gauges_.clear();
}

// ---------------------------------------------------------------------------
// Span
// ---------------------------------------------------------------------------

#if PMO_TELEMETRY_ENABLED

Span::Span(Registry& reg, std::string_view name)
    : reg_(reg), prev_path_(t_span_path), start_ns_(wall_ns()) {
  if (t_span_path.empty()) {
    t_span_path.assign(name);
  } else {
    t_span_path.append(1, '.').append(name);
  }
  if (trace::active()) {
    trace::begin(t_span_path);
    traced_ = true;
  }
}

Span::~Span() {
  const std::uint64_t elapsed = wall_ns() - start_ns_;
  reg_.histogram(t_span_path).record(elapsed);
  // Only close a slice we opened, and only into the *same* session — a
  // session started or stopped mid-span must not see half a pair.
  if (traced_ && trace::active()) trace::end(t_span_path);
  t_span_path = std::move(prev_path_);
}

const std::string& Span::current_path() { return t_span_path; }

#else

// Fully self-contained disabled-build stub: no thread-local path is kept
// (and none is compiled in), so a PMO_TELEMETRY=OFF TU needs nothing from
// the enabled implementation.
Span::Span(Registry&, std::string_view) {}
Span::~Span() = default;

const std::string& Span::current_path() {
  static const std::string empty;
  return empty;
}

#endif

// ---------------------------------------------------------------------------
// exporters
// ---------------------------------------------------------------------------

void write_table(const Snapshot& snap, std::ostream& os) {
  if (!snap.counters.empty() || !snap.gauges.empty()) {
    TablePrinter t({"metric", "value"});
    for (const auto& [name, v] : snap.counters)
      t.row({name, std::to_string(v)});
    for (const auto& [name, v] : snap.gauges)
      t.row({name, TablePrinter::num(v, 3)});
    t.print(os);
  }
  if (!snap.histograms.empty()) {
    TablePrinter t({"histogram", "count", "sum", "min", "mean", "max"});
    for (const auto& [name, h] : snap.histograms) {
      t.row({name, std::to_string(h.count), std::to_string(h.sum),
             std::to_string(h.min), TablePrinter::num(h.mean(), 1),
             std::to_string(h.max)});
    }
    t.print(os);
  }
}

json::Value to_json(const Snapshot& snap) {
  auto root = json::Value::object();
  auto& counters = root["counters"] = json::Value::object();
  for (const auto& [name, v] : snap.counters) counters[name] = v;
  auto& gauges = root["gauges"] = json::Value::object();
  for (const auto& [name, v] : snap.gauges) gauges[name] = v;
  auto& hists = root["histograms"] = json::Value::object();
  for (const auto& [name, h] : snap.histograms) {
    auto hv = json::Value::object();
    hv["count"] = h.count;
    hv["sum"] = h.sum;
    hv["min"] = h.min;
    hv["max"] = h.max;
    hv["mean"] = h.mean();
    auto buckets = json::Value::array();
    for (const auto& [b, n] : h.buckets) {
      auto pair = json::Value::array();
      pair.push_back(b);
      pair.push_back(n);
      buckets.push_back(std::move(pair));
    }
    hv["buckets"] = std::move(buckets);
    hists[name] = std::move(hv);
  }
  return root;
}

void write_json(const Snapshot& snap, std::ostream& os) {
  os << to_json(snap).dump();
}

}  // namespace pmo::telemetry
