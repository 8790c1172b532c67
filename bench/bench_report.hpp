// Machine-readable bench output (--json flag).
//
// Every bench binary mirrors its console table into a JSON document so the
// figure reproductions leave a parseable perf trajectory behind
// (BENCH_*.json in EXPERIMENTS.md). Schema, stable at schema_version 2:
//
//   {
//     "schema_version": 2,
//     "bench":  "fig07_breakdown",          // binary name
//     "title":  "Figure 7: ...",            // console header line
//     "scale":  1.0,                        // PMOCTREE_BENCH_SCALE
//     "telemetry_enabled": 1,               // 0 under PMO_TELEMETRY=OFF
//     "determinism": { "modeled_exact": 1 },// benchdiff exact-match rules
//     "device": { "dram_read_ns": 60, ... } // Table 2 model parameters
//     "config": { "threads": 8 },           // wall-clock-only knobs
//     "table":  { "headers": [...], "rows": [[".."], ...] },  // the
//                 // console table, cell-for-cell (display strings)
//     "metrics": { "counters": {...}, "gauges": {...},
//                  "histograms": {...} },   // final telemetry snapshot
//     "timeseries": { "ticks": N, "series": {...} },  // MetricSampler
//     ...                                   // bench-specific extras (set())
//   }
//
// schema 2 adds the MetricSampler: every report owns one, armed on the
// constructing (driver) thread with a default series set (NVBM line
// traffic, node-cache hit rate, persists); benches add their own with
// sampler().add(). Library sampling points (droplet step end, persist)
// tick it via timeseries::tick_point(); write() always takes one final
// tick so even fan-out benches get an end-state point. `--timeseries
// <path>` additionally exports the block as a standalone JSON file.
//
// "determinism.modeled_exact" is the bench's own promise to
// tools/benchdiff: 1 means modeled counters / nvbm gauges / modeled
// series are bit-identical run-to-run (every fig bench), 0 means only
// explicitly deterministic extras are (bench_serve, whose pin timing
// legitimately moves reclamation counters).
//
// Path defaults to bench_<name>.json in the working directory; `--json
// <path>` overrides. validate_bench_json (the bench_smoke ctest target)
// checks every bench's output against the required keys above.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/timeseries.hpp"

namespace pmo::bench {

class BenchReport {
 public:
  /// `name` is the binary name (bench_<name>.json default path); argv is
  /// scanned for `--json <path>`, `--trace <path>`, `--threads <N>` and
  /// `--node-cache <bytes|off>`; other arguments are left alone
  /// (micro_ops forwards its argv to google-benchmark afterwards).
  /// `--trace` starts a TraceSession covering the whole bench run;
  /// write() exports it as Chrome trace-event JSON. `--threads` sets the
  /// measurement-phase concurrency (see bench_threads(); flag beats
  /// PMOCTREE_BENCH_THREADS). `--node-cache` sets the PM-octree hot-node
  /// cache budget for every PM bundle (flag beats
  /// PMOCTREE_BENCH_NODE_CACHE; "off" = 0 = cache-off baseline).
  BenchReport(std::string name, std::string title, int argc = 0,
              char** argv = nullptr)
      : name_(std::move(name)),
        title_(std::move(title)),
        path_("bench_" + name_ + ".json") {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::string(argv[i]) == "--json") path_ = argv[i + 1];
      if (std::string(argv[i]) == "--trace") trace_path_ = argv[i + 1];
      if (std::string(argv[i]) == "--timeseries") {
        timeseries_path_ = argv[i + 1];
      }
      if (std::string(argv[i]) == "--threads") {
        const int v = std::atoi(argv[i + 1]);
        if (v > 0) bench_threads_override() = v;
      }
      if (std::string(argv[i]) == "--node-cache") {
        const std::string v = argv[i + 1];
        bench_node_cache_override() =
            v == "off" ? 0 : std::atoll(v.c_str());
      }
    }
    if (!trace_path_.empty()) {
      trace_ = std::make_unique<telemetry::trace::TraceSession>();
      telemetry::trace::name_process(0, "bench " + name_);
    }
    // Default series every bench records: the paper's headline NVBM
    // traffic trajectory, the node-cache warm-up curve, and the persist
    // cadence. All modeled — sampled only at deterministic tick points.
    sampler_.add({"nvbm.lines_read", telemetry::timeseries::Kind::kGauge,
                  "nvbm.lines_read", "", 0.0, /*modeled=*/true});
    sampler_.add({"nvbm.lines_written", telemetry::timeseries::Kind::kGauge,
                  "nvbm.lines_written", "", 0.0, /*modeled=*/true});
    sampler_.add({"pmoctree.cache.hit_rate",
                  telemetry::timeseries::Kind::kRatio,
                  "pmoctree.cache.hits", "pmoctree.cache.misses", 0.0,
                  /*modeled=*/true});
    sampler_.add({"pmoctree.persists", telemetry::timeseries::Kind::kCounter,
                  "pmoctree.persists", "", 0.0, /*modeled=*/true});
    // The constructing thread is the driver for library tick points.
    sampler_.install_on_current_thread();
  }

  const std::string& json_path() const noexcept { return path_; }
  const std::string& trace_path() const noexcept { return trace_path_; }
  bool tracing() const noexcept { return trace_ != nullptr; }

  /// The report's metric sampler: benches add series and (for paced
  /// loops) tick it explicitly; library tick points drive it otherwise.
  telemetry::timeseries::MetricSampler& sampler() noexcept {
    return sampler_;
  }

  /// Benches whose modeled counters legitimately vary run-to-run
  /// (bench_serve: reclamation depends on reader pin timing) opt out of
  /// benchdiff's exact-match rules here.
  void set_modeled_exact(bool v) noexcept { modeled_exact_ = v; }

  /// Prints the Table 2 banner (same as print_table2_header) so benches
  /// declare their title exactly once.
  void print_header() const { print_table2_header(title_.c_str()); }

  /// Starts the results table; add rows with row() so the console table
  /// and its JSON mirror stay cell-for-cell in sync.
  void begin_table(std::vector<std::string> headers) {
    headers_ = std::move(headers);
    printer_ = std::make_unique<TablePrinter>(headers_);
  }

  void row(std::vector<std::string> cells) {
    rows_.push_back(cells);
    printer_->row(std::move(cells));
  }

  void print_table(std::ostream& os) const { printer_->print(os); }

  /// Bench-specific top-level extras ("expected", derived stats, ...).
  void set(const std::string& key, telemetry::json::Value v) {
    extras_.emplace_back(key, std::move(v));
  }

  telemetry::json::Value to_json() const {
    namespace json = telemetry::json;
    json::Value root = json::Value::object();
    root["schema_version"] = 2;
    root["bench"] = name_;
    root["title"] = title_;
    root["scale"] = bench_scale();
    root["telemetry_enabled"] = telemetry::enabled() ? 1 : 0;
    json::Value det = json::Value::object();
    det["modeled_exact"] = modeled_exact_ ? 1 : 0;
    root["determinism"] = std::move(det);
    const nvbm::Config c = device_config();
    json::Value dev = json::Value::object();
    dev["dram_read_ns"] = c.dram_read_ns;
    dev["dram_write_ns"] = c.dram_write_ns;
    dev["nvbm_read_ns"] = c.read_ns;
    dev["nvbm_write_ns"] = c.write_ns;
    dev["cache_line"] = c.cache_line;
    dev["latency_mode"] =
        c.latency_mode == nvbm::LatencyMode::kModeled ? "modeled"
                                                      : "injected";
    root["device"] = std::move(dev);
    // Run configuration: knobs that affect wall-clock but (by the
    // determinism contract) not modeled results. Comparing two bench
    // JSONs modulo `config` + wall-clock histograms checks bit-identity.
    json::Value config = json::Value::object();
    config["threads"] = bench_threads();
    // Unlike threads, the node-cache budget DOES change modeled counters
    // (that is its purpose) — recording it keeps cache-on/off JSON pairs
    // honestly labeled.
    config["node_cache"] = bench_node_cache();
    root["config"] = std::move(config);
    json::Value table = json::Value::object();
    json::Value headers = json::Value::array();
    for (const auto& h : headers_) headers.push_back(h);
    json::Value rows = json::Value::array();
    for (const auto& r : rows_) {
      json::Value row = json::Value::array();
      for (const auto& cell : r) row.push_back(cell);
      rows.push_back(std::move(row));
    }
    table["headers"] = std::move(headers);
    table["rows"] = std::move(rows);
    root["table"] = std::move(table);
    root["metrics"] =
        telemetry::to_json(telemetry::Registry::global().snapshot());
    root["timeseries"] = sampler_.to_json();
    // Wear heatmaps of every device the bench created (live or already
    // destroyed — Sections freeze their last value). Always present so
    // the schema validator can rely on the key.
    root["wear_heatmaps"] = telemetry::trace::collect_sections();
    for (const auto& [k, v] : extras_) root[k] = v;
    return root;
  }

  /// Serializes to json_path() (and, with --trace, stops the trace
  /// session and writes the Chrome trace JSON). Returns false (with a
  /// message on stderr) when a file cannot be written.
  bool write() {
    // Final sample: every bench gets at least its end-state point even
    // when no library tick point fired (pool fan-out benches).
    if (telemetry::enabled()) sampler_.tick();
    std::ofstream out(path_);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", path_.c_str());
      return false;
    }
    out << to_json().dump() << "\n";
    std::printf("\njson: %s\n", path_.c_str());
    if (!timeseries_path_.empty()) {
      if (!sampler_.write_file(timeseries_path_)) return false;
      std::printf("timeseries: %s (%llu ticks, %zu series)\n",
                  timeseries_path_.c_str(),
                  static_cast<unsigned long long>(sampler_.ticks()),
                  sampler_.series_count());
    }
    if (trace_ != nullptr) {
      if (!trace_->write_file(trace_path_)) return false;
      std::printf("trace: %s (%zu events, %llu dropped)\n",
                  trace_path_.c_str(), trace_->event_count(),
                  static_cast<unsigned long long>(
                      trace_->dropped_events()));
    }
    return true;
  }

 private:
  std::string name_;
  std::string title_;
  std::string path_;
  std::string trace_path_;
  std::string timeseries_path_;
  bool modeled_exact_ = true;
  telemetry::timeseries::MetricSampler sampler_{
      telemetry::Registry::global(), {}};
  std::unique_ptr<telemetry::trace::TraceSession> trace_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  std::unique_ptr<TablePrinter> printer_;
  std::vector<std::pair<std::string, telemetry::json::Value>> extras_;
};

}  // namespace pmo::bench
