#include "telemetry/timeseries.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>

#include "exec/pool.hpp"

namespace pmo::telemetry::timeseries {

const char* kind_name(Kind k) noexcept {
  switch (k) {
    case Kind::kCounter:
      return "counter";
    case Kind::kGauge:
      return "gauge";
    case Kind::kRatio:
      return "ratio";
    case Kind::kPercentile:
      return "percentile";
    case Kind::kRate:
      return "rate";
  }
  return "unknown";
}

namespace detail {
#if PMO_TELEMETRY_ENABLED
std::atomic<MetricSampler*> g_installed{nullptr};
#endif
}  // namespace detail

MetricSampler::MetricSampler(Registry& reg, Options opts)
    : reg_(reg), opts_(opts), driver_(std::this_thread::get_id()) {
  if (opts_.capacity < 8) opts_.capacity = 8;
}

MetricSampler::~MetricSampler() {
#if PMO_TELEMETRY_ENABLED
  // Uninstall only if *this* sampler is the installed one.
  MetricSampler* self = this;
  detail::g_installed.compare_exchange_strong(self, nullptr,
                                              std::memory_order_acq_rel);
#endif
}

void MetricSampler::add(SeriesSpec spec) {
  // Rates divide by wall-clock time; they can never be modeled.
  if (spec.kind == Kind::kRate) spec.modeled = false;
  Series s;
  s.spec = std::move(spec);
  switch (s.spec.kind) {
    case Kind::kCounter:
      s.counter = &reg_.counter(s.spec.metric);
      break;
    case Kind::kGauge:
      // Created here but read by name at every tick: drop_gauges()
      // retires a gauge when its publisher dies, and a cached pointer
      // would keep reading the retired object after a new publisher
      // re-creates it.
      reg_.gauge(s.spec.metric);
      break;
    case Kind::kRatio:
      s.counter = &reg_.counter(s.spec.metric);
      s.counter2 = &reg_.counter(s.spec.metric2);
      break;
    case Kind::kPercentile:
    case Kind::kRate:
      s.hist = &reg_.histogram(s.spec.metric);
      break;
  }
  series_.push_back(std::move(s));
}

double MetricSampler::sample(Series& s, double dt_s) {
  switch (s.spec.kind) {
    case Kind::kCounter:
      return static_cast<double>(s.counter->value());
    case Kind::kGauge: {
      // Non-creating: a tick after the publisher died must not plant a
      // ghost gauge back into the namespace.
      const Gauge* g = reg_.find_gauge(s.spec.metric);
      return g == nullptr ? 0.0 : g->value();
    }
    case Kind::kRatio: {
      const double a = static_cast<double>(s.counter->value());
      const double b = static_cast<double>(s.counter2->value());
      const double denom = a + b;
      return denom == 0.0 ? 0.0 : a / denom;
    }
    case Kind::kPercentile:
      return static_cast<double>(s.hist->percentile(s.spec.percentile));
    case Kind::kRate: {
      const std::uint64_t c = s.hist->count();
      const double delta = static_cast<double>(c - s.prev_count);
      s.prev_count = c;
      return dt_s <= 0.0 ? 0.0 : delta / dt_s;
    }
  }
  return 0.0;
}

void MetricSampler::tick() {
#if PMO_TELEMETRY_ENABLED
  if (opts_.refresh_sources) reg_.refresh_sources();
  const auto now_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  const double dt_s =
      ticks_ == 0 ? 0.0
                  : static_cast<double>(now_ns - last_tick_wall_ns_) / 1e9;
  last_tick_wall_ns_ = now_ns;
  const std::uint64_t t = ticks_++;
  for (Series& s : series_) {
    // Sample every tick even when the stride skips the point: kRate must
    // keep its count cursor current so a retained point's rate covers
    // one tick interval, not everything since the last retained point.
    const double v = sample(s, dt_s);
    if (t % s.stride != 0) continue;
    if (s.t.size() == opts_.capacity) {
      // Budget full: decimate 2:1 (keep points on the doubled stride),
      // then double the stride. The whole run stays represented at half
      // the resolution instead of losing its tail.
      const std::uint64_t keep = s.stride * 2;
      std::size_t w = 0;
      for (std::size_t i = 0; i < s.t.size(); ++i) {
        if (static_cast<std::uint64_t>(s.t[i]) % keep == 0) {
          s.t[w] = s.t[i];
          s.v[w] = s.v[i];
          ++w;
        }
      }
      s.t.resize(w);
      s.v.resize(w);
      s.stride = keep;
      if (t % s.stride != 0) continue;
    }
    s.t.push_back(static_cast<double>(t));
    s.v.push_back(v);
  }
#endif
}

std::uint64_t MetricSampler::ticks() const noexcept { return ticks_; }

std::size_t MetricSampler::series_count() const noexcept {
  return series_.size();
}

std::size_t MetricSampler::capacity() const noexcept {
  return opts_.capacity;
}

json::Value MetricSampler::to_json() const {
  auto root = json::Value::object();
  root["ticks"] = ticks_;
  root["capacity"] = static_cast<std::uint64_t>(opts_.capacity);
  auto series = json::Value::object();
  for (const Series& s : series_) {
    auto one = json::Value::object();
    one["kind"] = std::string(kind_name(s.spec.kind));
    one["metric"] = s.spec.metric;
    if (s.spec.kind == Kind::kRatio) one["metric2"] = s.spec.metric2;
    if (s.spec.kind == Kind::kPercentile) {
      one["percentile"] = s.spec.percentile;
    }
    one["modeled"] = s.spec.modeled ? 1 : 0;
    one["stride"] = s.stride;
    auto t = json::Value::array();
    for (const double x : s.t) t.push_back(x);
    auto v = json::Value::array();
    for (const double x : s.v) v.push_back(x);
    one["t"] = std::move(t);
    one["v"] = std::move(v);
    series[s.spec.name] = std::move(one);
  }
  root["series"] = std::move(series);
  return root;
}

bool MetricSampler::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  out << to_json().dump() << "\n";
  return static_cast<bool>(out);
}

void MetricSampler::install_on_current_thread() {
  driver_ = std::this_thread::get_id();
#if PMO_TELEMETRY_ENABLED
  detail::g_installed.store(this, std::memory_order_release);
#endif
}

void MetricSampler::uninstall() {
#if PMO_TELEMETRY_ENABLED
  detail::g_installed.store(nullptr, std::memory_order_release);
#endif
}

MetricSampler* MetricSampler::installed() noexcept {
#if PMO_TELEMETRY_ENABLED
  return detail::g_installed.load(std::memory_order_acquire);
#else
  return nullptr;
#endif
}

void detail_tick_point() {
#if PMO_TELEMETRY_ENABLED
  MetricSampler* s = detail::g_installed.load(std::memory_order_acquire);
  if (s == nullptr) return;
  // Driver-thread gate: only the thread that installed the sampler may
  // tick it, and never from inside a parallel task — which worker ran a
  // replica (cluster lanes, serve tasks) is scheduling, and scheduling
  // must not shape a modeled series.
  if (s->driver_ != std::this_thread::get_id()) return;
  if (exec::in_parallel_task()) return;
  s->tick();
#endif
}

}  // namespace pmo::telemetry::timeseries
