// The benchmark's workloads and the machinery they share. Every workload
// repeats EPISODES until its time budget is spent: an episode builds a
// fresh emulated NVBM device and PM-octree, initializes the droplet and
// runs warm-up steps (its set-up time), then measures a fixed window of
// steps. Each step is DropletWorkload::step followed by the Partition
// routine ClusterSim runs. Episodes of one seed repeat the same operation
// sequence, so their modeled counters must agree; the window wall-clock
// is what varies.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "amr/droplet.hpp"
#include "amr/pm_backend.hpp"
#include "nvbm/device.hpp"
#include "report.hpp"
#include "serve/reader.hpp"
#include "telemetry/telemetry.hpp"
#include "timed_mesh.hpp"

namespace perfbench {

/// Runs droplet_dram (`nvbm_regime` false) or droplet_nvbm.
void run_droplet(const Options& opt, bool nvbm_regime, Report& report);
/// Runs serve_mixed.
void run_serve(const Options& opt, Report& report);

/// Emulated NVBM pool per episode: sized like a DIMM, not like the mesh.
constexpr std::size_t kDeviceBytes = std::size_t{256} << 20;
/// Fixed rank count of the per-step Partition routine.
constexpr int kPartitionRanks = 16;

/// The droplet at `max_level`, its instability parameters jittered by the
/// run seed exactly as ClusterSim jitters a non-canonical lane.
pmo::amr::DropletParams droplet_params(int max_level, std::uint64_t seed);

/// FNV-1a over the logical content (code, level, every field) of the
/// leaves in Morton order. A charged traversal: run it after measuring.
std::uint64_t leaf_hash(pmo::amr::MeshBackend& mesh);

// ---- snapshot queries -------------------------------------------------------

/// Query kinds, rotated in this order by every stream.
constexpr std::array<const char*, 4> kQueryKinds = {"locate", "box",
                                                     "neighbors", "interface"};
/// Issues query `seq` of a stream whose targets come from `rng`.
void issue_query(pmo::serve::Reader& reader, std::uint64_t& rng,
                 std::uint64_t seq);

/// Everything measured about a run's snapshot queries.
struct QueryLog {
  std::vector<double> latency_us;  ///< from due time (open loop) or start
  std::array<std::vector<double>, 4> service_us;  ///< per kind, start to end
  std::vector<double> pin_us;  ///< pin_snapshot + rebind
  double lag_sum_us = 0.0;     ///< how late the queries started, summed
  std::uint64_t pins = 0;
  /// Epochs the served snapshot trailed the durable head, summed over
  /// queries.
  std::uint64_t stale_sum = 0;
  pmo::serve::ReadCharges charges;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double seconds = 0.0;  ///< wall-clock the stream ran

  void merge(const QueryLog& o);
  void add_reader_stats(const pmo::serve::Reader& reader);
};

/// Closed loop, one query after another, on the latest durable snapshot.
QueryLog closed_loop_queries(pmo::amr::PmOctreeBackend& pm, std::uint64_t seed,
                             int queries, int batch);

// ---- episodes ---------------------------------------------------------------

/// Modeled outcome of one measured window.
struct Signature {
  std::uint64_t modeled_ns = 0;
  std::uint64_t lines_written = 0;
  std::uint64_t lines_read = 0;
  std::uint64_t cached_reads = 0;
  std::uint64_t eviction_merges = 0;
  std::size_t leaves = 0;
  std::uint64_t hash = 0;  ///< logical content of the final leaves

  /// Equal exactly on leaves and hash and, given a tolerance, within
  /// `rel_tol` on the modeled counters. Describes the first difference in
  /// `why`.
  bool matches(const Signature& o, std::optional<double> rel_tol,
               std::string& why) const;
};

/// What one episode measured. The layer figures are window deltas.
struct Window {
  bool traced = false;
  double setup_s = 0.0;
  double alloc_ms = 0.0;  ///< wall-clock of the nvbm::Device constructor
  std::size_t leaves_start = 0;
  std::vector<double> step_ms;
  Signature sig;
  double dram_mb = 0.0;  ///< C0 bytes (PmStats::dram_bytes) after the window
  double rss_mb = 0.0;   ///< process RSS high-water at the end of the window
  bool balanced = true;
  QueryLog queries;
  std::uint64_t reclaim_hwm = 0;

  MeshClock clock;  ///< traced episodes only
  pmo::telemetry::Snapshot telemetry;  ///< traced episodes only
  std::uint64_t self_ns = 0;  ///< step wall minus time in backend calls
  std::uint64_t partition_ns = 0;
  std::uint64_t migrated = 0;
  std::uint64_t ghost_leaves = 0;
  std::uint64_t refined = 0;
  std::uint64_t coarsened = 0;
  std::uint64_t balance_refined = 0;
  std::uint64_t leaves_sum = 0;
  pmo::nvbm::Counters device;  ///< device counter deltas
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

/// A live episode: device, backend, droplet, and in traced episodes the
/// timing decorator the droplet steps through.
class Episode {
 public:
  /// Allocates the device, initializes the droplet and runs `warmup` steps
  /// (the first persists the whole tree); records the set-up time.
  Episode(const pmo::amr::DropletParams& params,
          const pmo::pmoctree::PmConfig& pm, pmo::exec::ThreadPool* pool,
          bool traced, int warmup);
  Episode(const Episode&) = delete;
  Episode& operator=(const Episode&) = delete;

  /// Runs and measures `steps` steps.
  void measure(int steps);
  /// Untimed tail: C0 size, final leaf hash, 2:1 balance. Charged reads,
  /// so it runs only after everything measured.
  void finish(bool check_balance);

  pmo::amr::PmOctreeBackend& pm() { return *pm_; }
  pmo::amr::MeshBackend& mesh();
  Window& window() { return w_; }

 private:
  // Destruction runs bottom-up: the decorator before the backend it wraps,
  // the backend (whose feature hook points at the droplet) before the
  // droplet, the device last.
  std::unique_ptr<pmo::nvbm::Device> device_;
  std::unique_ptr<pmo::amr::DropletWorkload> wl_;
  std::unique_ptr<pmo::amr::PmOctreeBackend> pm_;
  std::optional<TimedMesh> timed_;
  std::unordered_map<pmo::LocCode, int, pmo::LocCodeHash> prev_owner_;
  int next_step_ = 0;
  Window w_;

  void step_and_partition(pmo::amr::StepStats* st);
};

/// Runs episodes until `budget_s` is spent (at least one): each call of
/// `run_one` runs one episode and returns its Window.
template <class F>
void run_episodes(double budget_s, std::vector<Window>& out, F&& run_one) {
  const auto start = Clock::now();
  double longest = 0.0;
  double elapsed = 0.0;
  do {
    const auto e0 = Clock::now();
    out.push_back(run_one());
    const auto e1 = Clock::now();
    longest = std::max(longest, static_cast<double>(ns_between(e0, e1)) * 1e-9);
    elapsed = static_cast<double>(ns_between(start, e1)) * 1e-9;
  } while (elapsed + longest <= budget_s);
}

/// Checks that every episode's signature matches the first one, across
/// traced and untraced episodes (the transparency check). Without a
/// tolerance only the final leaves are compared.
void check_signatures(const std::vector<Window>& untraced,
                      const std::vector<Window>& traced,
                      std::optional<double> rel_tol, Report& report);

/// Emits the end-to-end metrics from the untraced episodes.
void report_end_to_end(const std::vector<Window>& untraced, int window_steps,
                       Report& report);
/// Emits the per-layer metrics from the traced episodes, plus the tracing
/// overhead against the untraced ones.
void report_layers(const std::vector<Window>& untraced,
                   const std::vector<Window>& traced, Report& report);

}  // namespace perfbench
