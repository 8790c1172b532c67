// PM-octree tuning knobs. Defaults follow the paper's prototype.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pmo::pmoctree {

/// Where persist() dies when a crash-injection test arms it.
enum class CrashPoint {
  kNone,
  /// Right after the merge, before flush_all() and the root-table update:
  /// fresh twins and parent relinks still sit unflushed in the crash
  /// simulator's write buffer.
  kBeforeFlush,
  /// Between the durable epoch store and the root swap.
  kBeforeRootSwap,
};

struct PmConfig {
  /// DRAM budget for the C0 tree in bytes (the experiments' "DRAM size
  /// configured for C0": 1–8 GB on Titan, scaled down here).
  std::size_t dram_budget_bytes = std::size_t{64} << 20;

  /// Evict the least-frequently-accessed C0 subtree when C0 usage exceeds
  /// this fraction of the budget (the paper's threshold_DRAM expressed as
  /// a fraction of available DRAM).
  double threshold_dram = 1.0;

  /// Layout transformation fires when the hottest NVBM subtree's sampled
  /// access frequency exceeds T_transform times the coldest C0 subtree's.
  double t_transform = 1.5;

  /// Octants sampled per subtree: min(n_sample, subtree size) (§3.3).
  std::size_t n_sample = 100;

  /// Hot (C0-designated) subtrees may transiently exceed the DRAM budget
  /// by this factor between merge points; enforce_dram_budget() then
  /// evicts the least-frequently-accessed subtrees back down to budget.
  double dram_overflow = 1.5;

  /// Master switch for dynamic layout transformation (Fig. 11 ablation).
  bool enable_transform = true;

  /// DRAM budget (bytes) of the epoch-validated hot-node cache on the
  /// descent read path: NVBM-resident octants read via the node accessor
  /// are kept in DRAM and served at DRAM latency until invalidated by the
  /// CoW epoch rule (see DESIGN.md §8). 0 disables the cache: every
  /// descent then reads each octant on its path from the medium.
  std::size_t node_cache_bytes = std::size_t{4} << 20;

  /// TEST HOOK (crash injection): the point at which persist() returns
  /// early, emulating a process death mid-persist. The tree object is
  /// inconsistent afterwards and must be abandoned; only
  /// Device::simulate_crash + restore are meaningful.
  CrashPoint crash_for_test = CrashPoint::kNone;

  /// Keep a remote replica of V_{i-1} and ship deltas at each persist
  /// (§3.4 second scenario). Costs are modeled through cluster::LinkModel.
  bool enable_replica = false;

  // ---- automated C0 sizing (the paper's §6 future work) -------------------
  /// When true, the C0 DRAM budget adapts at each persist: it grows while
  /// the NVBM tier serves more than `auto_budget_high` of memory accesses
  /// and shrinks when it serves less than `auto_budget_low`, within
  /// [auto_budget_min_bytes, auto_budget_max_bytes].
  bool auto_budget = false;
  double auto_budget_high = 0.5;   ///< grow when NVBM share exceeds this
  double auto_budget_low = 0.10;   ///< shrink when NVBM share is below this
  double auto_budget_step = 1.25;  ///< multiplicative grow/shrink factor
  std::size_t auto_budget_min_bytes = std::size_t{64} << 10;
  std::size_t auto_budget_max_bytes = std::size_t{1} << 30;
};

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
