// Remote replication of the persistent version (§3.4, second scenario).
//
// When a crashed node is not available for restart, recovery must happen
// on a different node. For that the paper keeps two copies of V_{i-1}: the
// host copy V^H (the local NVBM heap) and a peer copy V^P on another
// compute/staging node, kept consistent by shipping only the *differences*
// between consecutive persisted versions — cheap because adjacent time
// steps overlap heavily (Fig. 3).
//
// ReplicaManager extracts the delta after each persist; ReplicaStore is
// the peer-side mirror that applies deltas and can rebuild a full
// PM-octree into a fresh heap on the replacement node. Network cost is
// modeled by the caller (cluster::LinkModel) from Delta::bytes().
#pragma once

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "pmoctree/pm_octree.hpp"

namespace pmo::pmoctree {

/// One persist's worth of changes to the persisted version.
struct Delta {
  std::uint64_t root_offset = 0;
  std::vector<std::pair<std::uint64_t, PNode>> upserts;
  std::vector<std::uint64_t> removals;

  std::uint64_t bytes() const noexcept {
    return upserts.size() * (sizeof(PNode) + sizeof(std::uint64_t)) +
           removals.size() * sizeof(std::uint64_t) + sizeof(root_offset);
  }
};

/// Peer-side mirror of the persisted octree, keyed by host offsets.
class ReplicaStore {
 public:
  void apply(const Delta& delta);

  std::size_t node_count() const noexcept { return mirror_.size(); }
  std::uint64_t root_offset() const noexcept { return root_offset_; }
  bool empty() const noexcept { return mirror_.empty(); }

  /// Rebuilds the mirrored version into a fresh heap on the replacement
  /// node and installs it as the persisted root, so PmOctree::restore()
  /// works there. Returns the number of octants written.
  std::size_t restore_into(nvbm::Heap& heap) const;

 private:
  std::unordered_map<std::uint64_t, PNode> mirror_;
  std::uint64_t root_offset_ = 0;
};

/// Host-side delta extraction, tracking what the peer already has.
class ReplicaManager {
 public:
  /// Computes the delta between the tree's current persisted version and
  /// the last shipped one. Call right after PmOctree::persist().
  Delta extract(PmOctree& tree);

  /// Convenience: extract + apply to `peer`; returns shipped bytes.
  std::uint64_t ship(PmOctree& tree, ReplicaStore& peer);

 private:
  std::unordered_set<std::uint64_t> known_;
};

}  // namespace pmo::pmoctree
