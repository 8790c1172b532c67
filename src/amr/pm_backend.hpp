// MeshBackend adapter over PM-octree (the paper's system under test).
#pragma once

#include <memory>

#include "amr/mesh_backend.hpp"
#include "pmoctree/api.hpp"
#include "pmoctree/replica.hpp"

namespace pmo::amr {

class PmOctreeBackend final : public MeshBackend {
 public:
  /// Builds a fresh PM-octree on `device` (which hosts the NVBM heap).
  PmOctreeBackend(nvbm::Device& device, pmoctree::PmConfig pm = {});

  std::string name() const override { return "PM-octree"; }

  void sweep_leaves(const LeafMutFn& fn) override {
    tree_->for_each_leaf_mut(fn);
  }
  void sweep_leaves_pruned(
      const std::function<bool(const LocCode&)>& visit_subtree,
      const LeafMutFn& fn) override {
    tree_->for_each_leaf_mut_pruned(visit_subtree, fn);
  }
  void visit_leaves(const LeafFn& fn) override { tree_->for_each_leaf(fn); }
  /// SoA snapshot extraction straight from the tree, through the same
  /// charged reads as visit_leaves.
  void sweep_leaves_chunked_soa(std::size_t chunks, const SoaLeafChunkFn& fn,
                                exec::ThreadPool* pool = nullptr,
                                const SoaPrepareFn& prepare =
                                    nullptr) override {
    SoaLeaves soa;
    tree_->extract_leaves_soa(soa.keys, soa.levels, soa.vof, soa.tracer);
    dispatch_soa_chunks(soa, chunks, fn, pool, prepare);
  }
  /// Leaf-set stamp: the tree's topology version, offset by a base that
  /// jumps on recover() (pm_restore replaces the tree, resetting its
  /// counter — the offset keeps stamps from ever repeating across the
  /// swap).
  std::uint64_t structure_version() override {
    return recover_version_base_ + tree_->topology_version();
  }
  std::size_t refine_where(const LeafPred& pred,
                           const ChildInit& init) override {
    return tree_->refine_where(pred, init);
  }
  std::size_t coarsen_where(const LeafPred& pred) override {
    return tree_->coarsen_where(pred);
  }
  std::size_t balance() override { return tree_->balance(); }
  CellData sample(const LocCode& code) override {
    return tree_->sample(code);
  }
  std::size_t leaf_count() override { return tree_->leaf_count(); }

  /// pm_persistent at every step end; ships the replica delta when the
  /// replica feature is on.
  void end_step(int step) override;
  /// Same-node recovery: pm_restore — O(1).
  bool recover() override;

  std::uint64_t modeled_ns() const override {
    return retired_ns_ + tree_->modeled_ns();
  }
  std::uint64_t nvbm_writes() const override {
    return tree_->device().counters().writes;
  }
  std::uint64_t memory_bytes() override {
    const auto s = tree_->stats();
    return s.dram_bytes + s.nvbm_live_bytes;
  }

  /// Registers an application feature function for the layout sampler.
  void register_feature(pmoctree::FeatureFn fn) {
    tree_->register_feature(std::move(fn));
  }

  /// Pins the latest durable epoch for concurrent serve readers. Safe
  /// from any thread; handles must be released before recover() replaces
  /// the tree (the registry outlives it, but the pinned bytes live in
  /// this backend's heap).
  pmoctree::SnapshotHandle pin_snapshot() { return tree_->pin_snapshot(); }
  /// Epoch of the latest durable (pinnable) version; 0 before the first
  /// persisted step. Safe from any thread.
  std::uint32_t durable_epoch() const {
    return tree_->snapshot_published_epoch();
  }

  pmoctree::PmOctree& tree() { return *tree_; }
  const pmoctree::PersistStats& last_persist() const {
    return last_persist_;
  }
  /// Peer replica (valid when PmConfig::enable_replica).
  pmoctree::ReplicaStore& replica() { return replica_; }
  /// Bytes shipped to the replica so far.
  std::uint64_t replica_bytes() const { return replica_bytes_; }

 private:
  nvbm::Heap heap_;
  pmoctree::PmConfig pm_;
  std::unique_ptr<pmoctree::PmOctree> tree_;
  pmoctree::ReplicaManager replica_mgr_;
  pmoctree::ReplicaStore replica_;
  pmoctree::PersistStats last_persist_;
  std::uint64_t replica_bytes_ = 0;
  /// Modeled time accrued by tree instances retired on recovery, so the
  /// backend's clock stays monotonic across restarts.
  std::uint64_t retired_ns_ = 0;
  /// structure_version() base, advanced past the retired tree's stamp on
  /// every recover() so the new tree's restarted counter never collides.
  std::uint64_t recover_version_base_ = 0;
};

}  // namespace pmo::amr
