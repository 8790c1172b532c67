// benchdiff: noise-aware comparison of two BenchReport JSON documents
// (schema_version 2), the regression gate behind the perf_regress ctest
// label.
//
//   benchdiff [flags] <baseline.json> <current.json>
//   benchdiff [flags] --baseline <dir> <current.json>
//   benchdiff [flags] --baseline <dir> --run <bench> <current.json> [args...]
//
// With --baseline the baseline file is <dir>/<bench>.json, keyed by the
// current document's "bench" field (the layout of bench/baselines/).
// With --run the bench binary is executed first (`--json <current.json>`
// plus the trailing args, same std::system harness as
// validate_bench_json), so one ctest command runs bench + gate.
//
// Comparison rules — the whole point of the tool is that they are keyed
// by the documents' own determinism contract, not by wishful thresholds:
//
//  * EXACT (verdict-driving) — applied when BOTH documents carry
//    determinism.modeled_exact = 1: every metrics.counters entry except
//    the documented-nondeterministic serve.*
//    namespace, every nvbm.* gauge, and every timeseries series flagged
//    modeled=1 (t and v arrays bit-for-bit; a diverged series is reported
//    at its first differing point: index, tick t, baseline and current
//    value). Modeled quantities are pure functions of the workload; ANY
//    drift is a real behavior change.
//  * EXACT always — the deterministic surfaces every bench promises
//    regardless of live-phase noise: serve.result_hash and each
//    serve.verify_charges field (bench_serve's fixed-stream verify
//    sweep).
//  * NOISE-THRESHOLDED (warn-only by default) — wall-clock headline
//    numbers (serve.qps, serve.latency.*) compared with a relative
//    threshold (--threshold, default 5%). Wall-clock on a shared CI box
//    is weather, so these only fail the gate under --strict-wallclock.
//
// Config identity: comparing different benches or scales is an error;
// differing thread counts are a note only (the determinism contract says
// threads change wall-clock, never modeled results).
//
// Output: a verdict line plus a markdown delta table (stdout; --md
// <path> writes it to a file for CI artifacts). --sparkline renders each
// current-run time series as an ASCII sparkline. --update-baseline
// copies the current document over the baseline file and exits 0 (the
// baseline-refresh workflow in EXPERIMENTS.md).
//
// Exit status: 0 pass, 1 regression, 2 usage/IO error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/json.hpp"

namespace {

using pmo::telemetry::json::Value;

int usage() {
  std::fprintf(
      stderr,
      "usage: benchdiff [--threshold F] [--strict-wallclock] [--sparkline]\n"
      "                 [--md <path>] [--update-baseline]\n"
      "                 (<baseline.json> | --baseline <dir>)\n"
      "                 [--run <bench>] <current.json> [bench args...]\n");
  return 2;
}

int ioerr(const std::string& msg) {
  std::fprintf(stderr, "benchdiff: %s\n", msg.c_str());
  return 2;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

double num_or(const Value* v, double fallback) {
  return v != nullptr && v->is_number() ? v->as_double() : fallback;
}

const Value* dig(const Value& root, std::initializer_list<const char*> ks) {
  const Value* v = &root;
  for (const char* k : ks) {
    if (!v->is_object()) return nullptr;
    v = v->find(k);
    if (v == nullptr) return nullptr;
  }
  return v;
}

std::string fmt(double v, int digits = 4) {
  char buf[64];
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  }
  return buf;
}

/// One comparison outcome, rendered as a markdown table row.
struct Delta {
  std::string metric;
  std::string rule;  ///< "exact" | "exact (modeled)" | "±N%"
  double a = 0.0, b = 0.0;
  bool fail = false;
  bool warn = false;
};

class Differ {
 public:
  Differ(double threshold, bool strict_wallclock)
      : threshold_(threshold), strict_wallclock_(strict_wallclock) {}

  void exact(const std::string& metric, const std::string& rule, double a,
             double b) {
    Delta d{metric, rule, a, b, a != b, false};
    push(std::move(d));
  }

  /// A failing exact row even when the two values coincide (a series
  /// point whose tick moved while its value did not).
  void mismatch(const std::string& metric, double a, double b) {
    push({metric, "exact (modeled)", a, b, true, false});
  }

  void exact_str(const std::string& metric, const std::string& a,
                 const std::string& b) {
    if (a == b) return;
    Delta d{metric + " (\"" + a + "\" vs \"" + b + "\")", "exact", 0, 0,
            true, false};
    push(std::move(d));
  }

  /// Relative comparison; `sign` +1 = higher current value is worse
  /// (latency), -1 = lower is worse (throughput).
  void noisy(const std::string& metric, double a, double b, int sign) {
    const double denom = std::max(std::abs(a), 1e-12);
    const double rel = sign * (b - a) / denom;
    Delta d{metric,
            "±" + fmt(threshold_ * 100) + "% wall-clock",
            a,
            b,
            false,
            false};
    if (rel > threshold_) {
      (strict_wallclock_ ? d.fail : d.warn) = true;
    }
    push(std::move(d));
  }

  void note(const std::string& msg) { notes_.push_back(msg); }

  bool failed() const {
    return std::any_of(rows_.begin(), rows_.end(),
                       [](const Delta& d) { return d.fail; });
  }

  std::string markdown() const {
    std::ostringstream os;
    std::size_t fails = 0, warns = 0;
    for (const Delta& d : rows_) {
      fails += d.fail ? 1 : 0;
      warns += d.warn ? 1 : 0;
    }
    os << "| metric | rule | baseline | current | verdict |\n";
    os << "|---|---|---|---|---|\n";
    for (const Delta& d : rows_) {
      // Passing exact rows are elided (there are hundreds of counters);
      // noisy headline rows always print so the table shows the trend.
      if (!d.fail && !d.warn && d.rule.rfind("exact", 0) == 0) continue;
      // Values that differ below the default precision print in full.
      const int digits = d.a != d.b && fmt(d.a) == fmt(d.b) ? 10 : 4;
      os << "| " << d.metric << " | " << d.rule << " | " << fmt(d.a, digits)
         << " | " << fmt(d.b, digits) << " | "
         << (d.fail ? "**REGRESS**" : d.warn ? "warn" : "ok") << " |\n";
    }
    os << "\n" << rows_.size() << " comparisons, " << fails
       << " regressions, " << warns << " warnings\n";
    for (const std::string& n : notes_) os << "\nnote: " << n << "\n";
    return os.str();
  }

 private:
  void push(Delta d) { rows_.push_back(std::move(d)); }

  double threshold_;
  bool strict_wallclock_;
  std::vector<Delta> rows_;
  std::vector<std::string> notes_;
};

bool skipped_counter(const std::string& name) {
  // Documented-nondeterministic namespace: serve.* live-phase counters are
  // wall-clock coupled (query classification, reclamation under reader
  // pins).
  return name.rfind("serve.", 0) == 0;
}

/// Renders `v` as an 8-level ASCII sparkline (low ' _.-~=+*#' high).
std::string sparkline(const Value& v) {
  static const char kRamp[] = "_.-~=+*#";
  double lo = 0, hi = 0;
  bool first = true;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double x = v.at(i).as_double();
    lo = first ? x : std::min(lo, x);
    hi = first ? x : std::max(hi, x);
    first = false;
  }
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double x = v.at(i).as_double();
    const double t = hi > lo ? (x - lo) / (hi - lo) : 0.0;
    out += kRamp[std::min<std::size_t>(
        7, static_cast<std::size_t>(t * 8.0))];
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  double threshold = 0.05;
  bool strict_wallclock = false;
  bool want_sparkline = false;
  bool update_baseline = false;
  std::string md_path;
  std::string baseline_dir;
  std::string run_bench;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threshold" && i + 1 < argc) {
      threshold = std::atof(argv[++i]);
    } else if (arg == "--strict-wallclock") {
      strict_wallclock = true;
    } else if (arg == "--sparkline") {
      want_sparkline = true;
    } else if (arg == "--update-baseline") {
      update_baseline = true;
    } else if (arg == "--md" && i + 1 < argc) {
      md_path = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_dir = argv[++i];
    } else if (arg == "--run" && i + 1 < argc) {
      run_bench = argv[++i];
    } else {
      positional.push_back(arg);
    }
  }
  const std::size_t need = baseline_dir.empty() ? 2 : 1;
  if (positional.size() < need) return usage();
  const std::string cur_path = positional[need - 1];

  if (!run_bench.empty()) {
    std::string cmd = "\"" + run_bench + "\" --json \"" + cur_path + "\"";
    for (std::size_t i = need; i < positional.size(); ++i) {
      cmd += " \"" + positional[i] + "\"";
    }
    std::printf("running: %s\n", cmd.c_str());
    std::fflush(stdout);
    const int rc = std::system(cmd.c_str());
    if (rc != 0) {
      return ioerr("bench exited with status " + std::to_string(rc));
    }
  }

  std::string cur_text;
  if (!read_file(cur_path, &cur_text)) {
    return ioerr("cannot read " + cur_path);
  }
  std::string err;
  const auto cur = Value::parse(cur_text, &err);
  if (!cur || !cur->is_object()) {
    return ioerr("bad JSON in " + cur_path + ": " + err);
  }
  const Value* bench_name = cur->find("bench");
  if (bench_name == nullptr || !bench_name->is_string()) {
    return ioerr(cur_path + " has no \"bench\" field");
  }

  std::string base_path = baseline_dir.empty()
                              ? positional[0]
                              : baseline_dir + "/" +
                                    bench_name->as_string() + ".json";

  if (update_baseline) {
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(base_path).parent_path(), ec);
    std::ofstream out(base_path);
    if (!out) return ioerr("cannot write baseline " + base_path);
    out << cur_text;
    std::printf("benchdiff: baseline %s updated from %s\n",
                base_path.c_str(), cur_path.c_str());
    return 0;
  }

  std::string base_text;
  if (!read_file(base_path, &base_text)) {
    return ioerr("cannot read baseline " + base_path +
                 " (run with --update-baseline to create it)");
  }
  const auto base = Value::parse(base_text, &err);
  if (!base || !base->is_object()) {
    return ioerr("bad JSON in " + base_path + ": " + err);
  }

  // ---- config identity -----------------------------------------------------
  const Value* bb = base->find("bench");
  if (bb == nullptr || !bb->is_string() ||
      bb->as_string() != bench_name->as_string()) {
    return ioerr("bench mismatch: baseline is \"" +
                 (bb != nullptr && bb->is_string() ? bb->as_string()
                                                   : std::string("?")) +
                 "\", current is \"" + bench_name->as_string() + "\"");
  }
  if (num_or(base->find("scale"), -1) != num_or(cur->find("scale"), -2)) {
    return ioerr("scale mismatch: baseline " +
                 fmt(num_or(base->find("scale"), 0)) + " vs current " +
                 fmt(num_or(cur->find("scale"), 0)));
  }

  Differ diff(threshold, strict_wallclock);
  const double threads_a = num_or(dig(*base, {"config", "threads"}), 0);
  const double threads_b = num_or(dig(*cur, {"config", "threads"}), 0);
  if (threads_a != threads_b) {
    diff.note("thread counts differ (" + fmt(threads_a) + " vs " +
              fmt(threads_b) +
              "): modeled results must still match (determinism "
              "contract); wall-clock rows are not comparable");
  }

  const bool modeled_exact =
      num_or(dig(*base, {"determinism", "modeled_exact"}), 0) != 0 &&
      num_or(dig(*cur, {"determinism", "modeled_exact"}), 0) != 0;
  const bool telemetry_on =
      num_or(base->find("telemetry_enabled"), 1) != 0 &&
      num_or(cur->find("telemetry_enabled"), 1) != 0;

  // ---- exact rules: modeled counters / gauges / series ---------------------
  if (modeled_exact && telemetry_on) {
    const Value* ca = dig(*base, {"metrics", "counters"});
    const Value* cb = dig(*cur, {"metrics", "counters"});
    if (ca != nullptr && cb != nullptr) {
      for (const auto& [name, va] : ca->members()) {
        if (skipped_counter(name)) continue;
        const Value* vb = cb->find(name);
        diff.exact("counters." + name, "exact (modeled)", va.as_double(),
                   num_or(vb, -1));
      }
      for (const auto& [name, vb] : cb->members()) {
        if (!skipped_counter(name) && ca->find(name) == nullptr) {
          diff.exact("counters." + name + " (new)", "exact (modeled)", -1,
                     vb.as_double());
        }
      }
    }
    const Value* ga = dig(*base, {"metrics", "gauges"});
    const Value* gb = dig(*cur, {"metrics", "gauges"});
    if (ga != nullptr && gb != nullptr) {
      for (const auto& [name, va] : ga->members()) {
        if (name.rfind("nvbm.", 0) != 0) continue;
        diff.exact("gauges." + name, "exact (modeled)", va.as_double(),
                   num_or(gb->find(name), -1));
      }
    }
    const Value* sa = dig(*base, {"timeseries", "series"});
    const Value* sb = dig(*cur, {"timeseries", "series"});
    if (sa != nullptr && sb != nullptr) {
      for (const auto& [name, series_a] : sa->members()) {
        if (num_or(series_a.find("modeled"), 0) == 0) continue;
        const Value* series_b = sb->find(name);
        if (series_b == nullptr) {
          diff.exact("timeseries." + name + " (missing)",
                     "exact (modeled)", 1, 0);
          continue;
        }
        const Value* ta = series_a.find("t");
        const Value* tb = series_b->find("t");
        const Value* va = series_a.find("v");
        const Value* vb = series_b->find("v");
        if (ta == nullptr || tb == nullptr || va == nullptr ||
            vb == nullptr) {
          diff.mismatch("timeseries." + name + " (no t/v arrays)", 1, 0);
          continue;
        }
        // First differing (t, v) point over the common prefix, so a
        // diverged run says where it diverged, not just that it did.
        const std::size_t n = std::min(
            {ta->size(), tb->size(), va->size(), vb->size()});
        std::size_t i = 0;
        while (i < n && ta->at(i).as_double() == tb->at(i).as_double() &&
               va->at(i).as_double() == vb->at(i).as_double()) {
          ++i;
        }
        if (i < n) {
          const double t_a = ta->at(i).as_double();
          const double t_b = tb->at(i).as_double();
          diff.mismatch("timeseries." + name + " first diff at point " +
                            std::to_string(i) + " (t=" + fmt(t_a) +
                            (t_a == t_b ? "" : " vs " + fmt(t_b)) + ")",
                        va->at(i).as_double(), vb->at(i).as_double());
          continue;
        }
        // Equal prefix: the series match iff their lengths do.
        diff.exact("timeseries." + name + ".points", "exact (modeled)",
                   static_cast<double>(ta->size()),
                   static_cast<double>(tb->size()));
      }
    }
  } else if (!modeled_exact) {
    diff.note(
        "modeled_exact=0: exact counter/gauge/series rules skipped "
        "(live-phase bench)");
  }

  // ---- exact rules that hold regardless of live-phase noise ----------------
  const Value* srv_a = base->find("serve");
  const Value* srv_b = cur->find("serve");
  if (srv_a != nullptr && srv_b != nullptr) {
    const Value* ha = srv_a->find("result_hash");
    const Value* hb = srv_b->find("result_hash");
    if (ha != nullptr && hb != nullptr) {
      diff.exact_str("serve.result_hash", ha->as_string(),
                     hb->as_string());
    }
    for (const char* key :
         {"node_loads", "cached_loads", "lines_read", "modeled_ns"}) {
      diff.exact("serve.verify_charges." + std::string(key), "exact",
                 num_or(dig(*srv_a, {"verify_charges", key}), -1),
                 num_or(dig(*srv_b, {"verify_charges", key}), -2));
    }
    // Headline wall-clock trend rows (warn-only unless
    // --strict-wallclock).
    diff.noisy("serve.qps", num_or(srv_a->find("qps"), 0),
               num_or(srv_b->find("qps"), 0), /*lower is worse*/ -1);
    diff.noisy("serve.latency.p99_ns",
               num_or(dig(*srv_a, {"latency", "p99_ns"}), 0),
               num_or(dig(*srv_b, {"latency", "p99_ns"}), 0),
               /*higher is worse*/ 1);
    diff.noisy("serve.staleness.mean",
               num_or(dig(*srv_a, {"staleness", "mean"}), 0),
               num_or(dig(*srv_b, {"staleness", "mean"}), 0), 1);
  }

  std::string report = diff.markdown();
  if (want_sparkline) {
    const Value* sb = dig(*cur, {"timeseries", "series"});
    if (sb != nullptr) {
      report += "\ncurrent-run time series:\n```\n";
      std::size_t width = 0;
      for (const auto& [name, s] : sb->members()) {
        width = std::max(width, name.size());
      }
      for (const auto& [name, s] : sb->members()) {
        const Value* v = s.find("v");
        if (v == nullptr || v->size() == 0) continue;
        double last = v->at(v->size() - 1).as_double();
        report += "  " + name +
                  std::string(width - name.size() + 2, ' ') +
                  sparkline(*v) + "  (last " + fmt(last) + ")\n";
      }
      report += "```\n";
    }
  }

  std::printf("benchdiff: %s vs %s\n\n%s\n", base_path.c_str(),
              cur_path.c_str(), report.c_str());
  if (!md_path.empty()) {
    std::ofstream out(md_path);
    if (!out) return ioerr("cannot write " + md_path);
    out << "# benchdiff: " << bench_name->as_string() << "\n\nbaseline `"
        << base_path << "` vs current `" << cur_path << "`\n\n"
        << report;
  }
  if (diff.failed()) {
    std::printf("verdict: REGRESS\n");
    return 1;
  }
  std::printf("verdict: pass\n");
  return 0;
}
