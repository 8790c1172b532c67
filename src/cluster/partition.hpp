// Morton-order (space-filling-curve) domain partitioning — the Partition
// routine of parallel octree meshing (§2). Leaves sorted by locational
// code are split into contiguous equal-count ranges, one per rank; this
// is the standard SFC partitioning Gerris/p4est-style codes use.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/morton.hpp"

namespace pmo::cluster {

/// Per-step partition of the global leaf set.
struct Partition {
  int procs = 1;
  /// Morton-sorted leaf codes (the global mesh).
  std::vector<LocCode> leaves;
  /// leaves[i] belongs to rank owner_of_index(i).
  std::vector<std::size_t> range_begin;  ///< procs+1 split points
  /// Key of leaves[range_begin[r]] for ranks r = 1..procs-1 (empty when
  /// there are no leaves): all owner_of needs to place a code.
  std::vector<std::uint64_t> split_keys;

  int owner_of_index(std::size_t i) const;
  /// Owner of the leaf covering `code` (by SFC position); searches the
  /// procs-1 split keys, not the leaves.
  int owner_of(const LocCode& code) const;
  std::size_t rank_size(int rank) const {
    return range_begin[static_cast<std::size_t>(rank) + 1] -
           range_begin[static_cast<std::size_t>(rank)];
  }
};

/// Splits Morton-sorted leaves evenly among `procs` ranks.
Partition partition_leaves(std::vector<LocCode> sorted_leaves, int procs);

/// Statistics comparing consecutive partitions and measuring boundaries.
struct PartitionStats {
  /// Leaves present in both steps whose owner changed (migration volume).
  std::size_t migrated = 0;
  /// Per-rank count of leaves with at least one face neighbor on another
  /// rank (ghost layer size).
  std::vector<std::size_t> boundary;
  /// Per-rank leaf counts.
  std::vector<std::size_t> counts;
  /// max/mean leaf-count imbalance.
  double imbalance = 1.0;
};

/// Computes migration vs `prev` (may be empty) and the ghost boundary of
/// `cur`.
PartitionStats analyze_partition(
    const Partition& cur,
    const std::unordered_map<LocCode, int, LocCodeHash>& prev_owner);

/// Owner map for migration tracking.
std::unordered_map<LocCode, int, LocCodeHash> owner_map(const Partition& p);

}  // namespace pmo::cluster
