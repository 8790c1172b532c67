#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

/// Shortest decimal that round-trips the double: every measured digit.
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(p, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::config(const std::string& key, double value) {
  config_.emplace_back(key, num(value));
}

void Report::config(const std::string& key, const std::string& value) {
  config_.emplace_back(key, quoted(value));
}

void Report::end_to_end(const std::string& name, double value,
                        const std::string& unit) {
  end_to_end_.push_back({name, value, unit});
}

void Report::per_layer(const std::string& name, double value,
                       const std::string& unit) {
  per_layer_.push_back({name, value, unit});
}

void Report::fail(const std::string& why) {
  failures_.push_back(why);
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

void Report::print(bool trace) const {
  std::string cfg = "{";
  for (std::size_t i = 0; i < config_.size(); ++i) {
    if (i != 0) cfg += ", ";
    cfg += quoted(config_[i].first) + ": " + config_[i].second;
  }
  std::printf("config: %s}\n", cfg.c_str());
  const auto table = [](const char* title, const std::vector<Metric>& ms) {
    if (ms.empty()) return;
    std::printf("%s\n", title);
    for (const Metric& m : ms) {
      std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  };
  table("end-to-end (untraced run):", end_to_end_);
  table("per-layer (traced run):", per_layer_);
  const double failed_frac =
      attempted_ == 0 ? 1.0
                      : static_cast<double>(failures_.size()) /
                            static_cast<double>(attempted_);
  std::printf("  %-32s %16.6g %s\n", "failed_frac", failed_frac, "frac");

  const std::vector<Metric>& out = trace ? per_layer_ : end_to_end_;
  std::string metrics = "{";
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i != 0) metrics += ", ";
    metrics += quoted(out[i].name) + ": {\"value\": " + num(out[i].value) +
               ", \"unit\": " + quoted(out[i].unit) + "}";
  }
  metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failures_.empty() && attempted_ > 0 ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(
                  attempted_, 1)),
              static_cast<unsigned long long>(failures_.size()),
              metrics.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
