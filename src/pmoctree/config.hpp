// PM-octree tuning knobs. Defaults follow the paper's prototype.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pmo::pmoctree {

/// What an experiment varies; everything else is fixed below.
struct PmConfig {
  /// DRAM budget for the C0 tree in bytes (the experiments' "DRAM size
  /// configured for C0": 1–8 GB on Titan, scaled down here). First-touch
  /// placement fills C0 up to it (the paper's threshold_DRAM at 100%).
  std::size_t dram_budget_bytes = std::size_t{64} << 20;

  /// Master switch for dynamic layout transformation (Fig. 11 ablation).
  bool enable_transform = true;

  /// DRAM budget (bytes) of the epoch-validated hot-node cache on the
  /// descent read path: NVBM-resident octants read via the node accessor
  /// are kept in DRAM and served at DRAM latency until invalidated by the
  /// CoW epoch rule (see DESIGN.md §8). 0 disables the cache: every
  /// descent then reads each octant on its path from the medium.
  std::size_t node_cache_bytes = std::size_t{4} << 20;

  /// Keep a remote replica of V_{i-1} and ship deltas at each persist
  /// (§3.4 second scenario). Costs are modeled through cluster::LinkModel.
  bool enable_replica = false;
};

/// Hot (C0-designated) subtrees may transiently exceed the DRAM budget
/// by this factor between merge points; enforce_dram_budget() then
/// evicts the least-frequently-accessed subtrees back down to budget.
inline constexpr double kDramOverflow = 1.5;

/// Layout transformation fires when the hottest NVBM subtree's sampled
/// access frequency exceeds T_transform times the coldest C0 subtree's.
inline constexpr double kTTransform = 1.5;

/// Octants sampled per subtree: min(N_sample, subtree size) (§3.3).
inline constexpr std::size_t kNSample = 100;

/// Access/latency accounting for the DRAM side (the device tracks NVBM).
struct DramCounters {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t lines_read = 0;
  std::uint64_t lines_written = 0;
  std::uint64_t modeled_read_ns = 0;
  std::uint64_t modeled_write_ns = 0;

  std::uint64_t modeled_ns() const noexcept {
    return modeled_read_ns + modeled_write_ns;
  }
};

}  // namespace pmo::pmoctree
