// Shared benchmark plumbing: command-line options, summary statistics and
// the report every workload fills — a human-readable table of every metric
// with its unit, then one JSON result line.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: per-layer metrics (plus an untraced half for the overhead
  /// and transparency comparison). Untraced run: end-to-end metrics.
  bool trace = false;
  /// Test scale: small meshes and short windows, for the metric-coverage
  /// test only.
  bool tiny = false;
};

/// Linear-interpolated p-quantile (0 <= p <= 1); 0 for an empty sample.
double quantile(std::vector<double> v, double p);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

class Report {
 public:
  /// Run configuration recorded in the output (seed, threads, sizes...).
  void config(const std::string& key, double value);
  void config(const std::string& key, const std::string& value);

  void end_to_end(const std::string& name, double value,
                  const std::string& unit);
  void per_layer(const std::string& name, double value,
                 const std::string& unit);

  /// Operations attempted (steps, queries, correctness probes) and how many
  /// of them failed.
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& why);

  /// Prints the table, then the result line carrying the per-layer metrics
  /// when `trace`, else the end-to-end ones.
  void print(bool trace) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<Metric> end_to_end_;
  std::vector<Metric> per_layer_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
};

}  // namespace perfbench
