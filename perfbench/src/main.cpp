// perfbench — the repository benchmark.
//
//   perfbench --workload <droplet_dram|droplet_nvbm|serve_mixed>
//             --seed <n> --seconds <s> --trace <0|1> [--tiny]
//
// Prints the run configuration, a table of every metric with its unit,
// then one JSON line: {"correct", "attempted", "failed", "metrics"}, where
// metrics holds the end-to-end metrics of an untraced run (--trace 0) or
// the per-layer metrics of a traced run (--trace 1).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<droplet_dram|droplet_nvbm|serve_mixed> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      opt.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(val.c_str());
    } else if (arg == "--trace") {
      opt.trace = val == "1";
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.seconds <= 0) usage("--seconds must be positive");

  perfbench::Report report;
  try {
    if (opt.workload == "droplet_dram") {
      perfbench::run_droplet(opt, /*nvbm_regime=*/false, report);
    } else if (opt.workload == "droplet_nvbm") {
      perfbench::run_droplet(opt, /*nvbm_regime=*/true, report);
    } else if (opt.workload == "serve_mixed") {
      perfbench::run_serve(opt, report);
    } else {
      usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.print(opt.trace);
  return 0;
}
