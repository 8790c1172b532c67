// bench_smoke harness: runs one bench binary with --json and validates
// the emitted document against the BenchReport schema (schema_version 2).
//
//   validate_bench_json <bench-binary> <json-path> [extra bench args...]
//
// The bench runs through std::system with the caller's environment (the
// ctest targets set PMOCTREE_BENCH_SCALE=0.05 so each bench finishes in
// seconds); the validator then parses <json-path> and checks the keys
// every bench must emit: schema_version, bench, title, scale, device
// (with the Table 2 latency fields), config (with the measurement thread
// count and node-cache budget), table.headers / table.rows (row
// width matching the header count) and metrics. Exits non-zero with a
// message on the first violation.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "telemetry/json.hpp"

namespace {

using pmo::telemetry::json::Value;

int fail(const std::string& msg) {
  std::fprintf(stderr, "validate_bench_json: %s\n", msg.c_str());
  return 1;
}

const Value* require(const Value& obj, const std::string& key,
                     Value::Type type, std::string* err) {
  const Value* v = obj.find(key);
  if (v == nullptr) {
    *err = "missing key \"" + key + "\"";
    return nullptr;
  }
  if (v->type() != type) {
    *err = "key \"" + key + "\" has wrong type";
    return nullptr;
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    return fail("usage: validate_bench_json <bench> <json-path> [args...]");
  }
  const std::string bench = argv[1];
  const std::string path = argv[2];

  std::string cmd = "\"" + bench + "\" --json \"" + path + "\"";
  for (int i = 3; i < argc; ++i) cmd += " \"" + std::string(argv[i]) + "\"";
  std::printf("running: %s\n", cmd.c_str());
  std::fflush(stdout);
  const int rc = std::system(cmd.c_str());
  if (rc != 0) return fail("bench exited with status " + std::to_string(rc));

  std::ifstream in(path);
  if (!in) return fail("bench did not write " + path);
  std::stringstream buf;
  buf << in.rdbuf();

  std::string err;
  const auto doc = Value::parse(buf.str(), &err);
  if (!doc) return fail("JSON parse error in " + path + ": " + err);
  if (!doc->is_object()) return fail("document is not an object");

  const Value* v = require(*doc, "schema_version", Value::Type::kNumber,
                           &err);
  if (v == nullptr) return fail(err);
  if (v->as_double() != 2.0) return fail("unsupported schema_version");
  if (require(*doc, "bench", Value::Type::kString, &err) == nullptr ||
      require(*doc, "title", Value::Type::kString, &err) == nullptr ||
      require(*doc, "scale", Value::Type::kNumber, &err) == nullptr ||
      require(*doc, "telemetry_enabled", Value::Type::kNumber, &err) ==
          nullptr) {
    return fail(err);
  }
  const bool telemetry_on =
      doc->find("telemetry_enabled")->as_double() != 0.0;

  // schema 2: the bench's determinism promise, read by tools/benchdiff to
  // pick exact-match vs noise-thresholded comparison rules.
  const Value* det =
      require(*doc, "determinism", Value::Type::kObject, &err);
  if (det == nullptr) return fail(err);
  if (require(*det, "modeled_exact", Value::Type::kNumber, &err) ==
      nullptr) {
    return fail("determinism: " + err);
  }

  const Value* dev = require(*doc, "device", Value::Type::kObject, &err);
  if (dev == nullptr) return fail(err);
  for (const char* key : {"dram_read_ns", "dram_write_ns", "nvbm_read_ns",
                          "nvbm_write_ns", "cache_line"}) {
    if (require(*dev, key, Value::Type::kNumber, &err) == nullptr) {
      return fail("device: " + err);
    }
  }

  // Run configuration (wall-clock-only knobs): every bench records its
  // measurement-phase thread count.
  const Value* config = require(*doc, "config", Value::Type::kObject, &err);
  if (config == nullptr) return fail(err);
  if (require(*config, "threads", Value::Type::kNumber, &err) == nullptr ||
      require(*config, "node_cache", Value::Type::kNumber, &err) ==
          nullptr) {
    return fail("config: " + err);
  }

  const Value* table = require(*doc, "table", Value::Type::kObject, &err);
  if (table == nullptr) return fail(err);
  const Value* headers =
      require(*table, "headers", Value::Type::kArray, &err);
  const Value* rows =
      headers ? require(*table, "rows", Value::Type::kArray, &err) : nullptr;
  if (rows == nullptr) return fail("table: " + err);
  if (headers->size() == 0) return fail("table.headers is empty");
  if (rows->size() == 0) return fail("table.rows is empty");
  for (std::size_t i = 0; i < rows->size(); ++i) {
    const Value& row = rows->at(i);
    if (!row.is_array() || row.size() != headers->size()) {
      return fail("table.rows[" + std::to_string(i) +
                  "] does not match the header count");
    }
  }

  const Value* metrics = require(*doc, "metrics", Value::Type::kObject,
                                 &err);
  if (metrics == nullptr) return fail(err);
  for (const char* key : {"counters", "gauges", "histograms"}) {
    if (require(*metrics, key, Value::Type::kObject, &err) == nullptr) {
      return fail("metrics: " + err);
    }
  }

  // schema 2: the MetricSampler block. Always present; under
  // PMO_TELEMETRY=OFF recording is compiled out, so series arrays are
  // only required to be non-empty when telemetry is on (BenchReport
  // takes a final tick in write(), so every series has >= 1 point).
  const Value* ts = require(*doc, "timeseries", Value::Type::kObject, &err);
  if (ts == nullptr) return fail(err);
  if (require(*ts, "ticks", Value::Type::kNumber, &err) == nullptr ||
      require(*ts, "capacity", Value::Type::kNumber, &err) == nullptr) {
    return fail("timeseries: " + err);
  }
  const Value* series =
      require(*ts, "series", Value::Type::kObject, &err);
  if (series == nullptr) return fail("timeseries: " + err);
  for (const auto& [name, s] : series->members()) {
    if (!s.is_object()) return fail("timeseries.series." + name);
    for (const char* key : {"kind", "metric"}) {
      if (s.find(key) == nullptr || !s.find(key)->is_string()) {
        return fail("timeseries.series." + name + " missing \"" + key +
                    "\"");
      }
    }
    for (const char* key : {"modeled", "stride"}) {
      if (s.find(key) == nullptr || !s.find(key)->is_number()) {
        return fail("timeseries.series." + name + " missing \"" + key +
                    "\"");
      }
    }
    const Value* t = s.find("t");
    const Value* val = s.find("v");
    if (t == nullptr || !t->is_array() || val == nullptr ||
        !val->is_array() || t->size() != val->size()) {
      return fail("timeseries.series." + name + ": t/v arrays mismatch");
    }
    if (telemetry_on && t->size() == 0) {
      return fail("timeseries.series." + name +
                  " is empty with telemetry enabled");
    }
  }
  if (telemetry_on && ts->find("ticks")->as_double() < 1.0) {
    return fail("timeseries.ticks is 0 with telemetry enabled");
  }

  // Benches that exercised a PM-octree (any pmoctree.* counter present)
  // must report the hot-node-cache counters so cache-on/off comparisons
  // never chase a silently-missing metric. Benches with no PM-octree
  // (e.g. a filtered micro_ops run) are exempt.
  const Value& counters = *metrics->find("counters");
  bool has_pmoctree = false;
  for (const auto& [name, val] : counters.members()) {
    if (name.rfind("pmoctree.", 0) == 0) {
      has_pmoctree = true;
      break;
    }
  }
  if (has_pmoctree) {
    for (const char* key :
         {"pmoctree.cache.hits", "pmoctree.cache.misses",
          "pmoctree.cache.evictions", "pmoctree.cache.invalidations"}) {
      if (counters.find(key) == nullptr) {
        return fail("metrics.counters missing \"" + std::string(key) +
                    "\" despite pmoctree activity");
      }
    }
  }

  // bench_serve extension: the serving bench must report its aggregate
  // throughput, latency percentiles, snapshot staleness, the epoch-based
  // reclamation high-water mark and the deterministic verification hash
  // (the --threads A/B bit-identity surface), plus the global query
  // latency histogram.
  if (doc->find("bench")->as_string() == "serve") {
    const Value* serve = require(*doc, "serve", Value::Type::kObject, &err);
    if (serve == nullptr) return fail(err);
    for (const char* key : {"readers", "target_qps", "queries", "qps",
                            "deferred_reclaim_hwm", "pins", "unpins"}) {
      if (require(*serve, key, Value::Type::kNumber, &err) == nullptr) {
        return fail("serve: " + err);
      }
    }
    const Value* latency =
        require(*serve, "latency", Value::Type::kObject, &err);
    if (latency == nullptr) return fail("serve: " + err);
    for (const char* key : {"p50_ns", "p95_ns", "p99_ns"}) {
      if (require(*latency, key, Value::Type::kNumber, &err) == nullptr) {
        return fail("serve.latency: " + err);
      }
    }
    const Value* staleness =
        require(*serve, "staleness", Value::Type::kObject, &err);
    if (staleness == nullptr) return fail("serve: " + err);
    if (require(*staleness, "max", Value::Type::kNumber, &err) == nullptr ||
        require(*staleness, "mean", Value::Type::kNumber, &err) == nullptr) {
      return fail("serve.staleness: " + err);
    }
    if (require(*serve, "result_hash", Value::Type::kString, &err) ==
            nullptr ||
        require(*serve, "verify_charges", Value::Type::kObject, &err) ==
            nullptr) {
      return fail("serve: " + err);
    }
    if (metrics->find("histograms")->find("serve.query_ns") == nullptr) {
      return fail("metrics.histograms missing \"serve.query_ns\"");
    }
    // schema 2: the serving bench must record the QPS / interpolated-p99
    // / reclamation-HWM trajectories (the headline time-series) ...
    for (const char* key :
         {"serve.qps", "serve.p99_ns", "serve.reclaim_hwm"}) {
      const Value* s = series->find(key);
      if (s == nullptr) {
        return fail("timeseries.series missing \"" + std::string(key) +
                    "\"");
      }
      if (telemetry_on && s->find("t")->size() == 0) {
        return fail("timeseries.series." + std::string(key) + " is empty");
      }
    }
    // ... and the SLO roll-up: objective, error-budget accounting and the
    // tail-sampled slow-query log.
    const Value* slo = require(*doc, "slo", Value::Type::kObject, &err);
    if (slo == nullptr) return fail(err);
    for (const char* key : {"total", "violations", "violation_fraction",
                            "budget_remaining", "burn_rate", "p_ns",
                            "tail_sampled"}) {
      if (require(*slo, key, Value::Type::kNumber, &err) == nullptr) {
        return fail("slo: " + err);
      }
    }
    const Value* obj =
        require(*slo, "objective", Value::Type::kObject, &err);
    if (obj == nullptr) return fail("slo: " + err);
    for (const char* key :
         {"quantile", "latency_ns", "error_budget", "slow_query_ns"}) {
      if (require(*obj, key, Value::Type::kNumber, &err) == nullptr) {
        return fail("slo.objective: " + err);
      }
    }
    if (require(*slo, "slow_queries", Value::Type::kArray, &err) ==
        nullptr) {
      return fail("slo: " + err);
    }
  }

  // Wear heatmaps: always present (possibly empty); each entry carries
  // the per-address-range bucket array.
  const Value* wear =
      require(*doc, "wear_heatmaps", Value::Type::kObject, &err);
  if (wear == nullptr) return fail(err);
  for (const auto& [name, hm] : wear->members()) {
    if (!hm.is_object() || hm.find("buckets") == nullptr ||
        !hm.find("buckets")->is_array()) {
      return fail("wear_heatmaps." + name + " missing buckets array");
    }
  }

  std::printf("ok: %s (%zu rows, %zu metric counters)\n", path.c_str(),
              rows->size(),
              metrics->find("counters")->members().size());
  return 0;
}
