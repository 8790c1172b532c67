#include "baseline/incore_backend.hpp"

#include <cstring>
#include <vector>

namespace pmo::baseline {

namespace {

pmoctree::PmConfig dram_only_config() {
  pmoctree::PmConfig pm;
  // Effectively unlimited DRAM: octants never spill to NVBM.
  pm.dram_budget_bytes = std::size_t{1} << 50;
  pm.enable_transform = false;
  // No NVBM-resident octants -> the hot-node cache would never hit; keep
  // it off so this baseline emits no pmoctree.cache telemetry that could
  // be mistaken for the PM-octree under test.
  pm.node_cache_bytes = 0;
  return pm;
}

nvbm::Config header_only_device() {
  nvbm::Config c;
  c.latency_mode = nvbm::LatencyMode::kNone;  // never used for octants
  return c;
}

/// Snapshot record: one leaf octant.
struct SnapRecord {
  std::uint64_t key;
  std::uint32_t level;
  std::uint32_t pad = 0;
  CellData data;
};

}  // namespace

InCoreBackend::InCoreBackend(nvbm::Device& snapshot_device,
                             InCoreConfig config)
    : snapshot_device_(snapshot_device),
      config_(config),
      store_(snapshot_device, config.fs),
      tree_device_(1 << 20, header_only_device()),
      tree_heap_(tree_device_) {
  tree_ = std::make_unique<pmoctree::PmOctree>(
      pmoctree::PmOctree::create(tree_heap_, dram_only_config()));
}

void InCoreBackend::sweep_leaves(const amr::LeafMutFn& fn) {
  tree_->for_each_leaf_mut(fn);
}

void InCoreBackend::sweep_leaves_pruned(
    const std::function<bool(const LocCode&)>& visit_subtree,
    const amr::LeafMutFn& fn) {
  tree_->for_each_leaf_mut_pruned(visit_subtree, fn);
}

void InCoreBackend::visit_leaves(const amr::LeafFn& fn) {
  tree_->for_each_leaf(fn);
}

void InCoreBackend::sweep_leaves_chunked_soa(
    std::size_t chunks, const amr::SoaLeafChunkFn& fn,
    exec::ThreadPool* pool, const amr::SoaPrepareFn& prepare) {
  // DRAM-only tree, but the extraction still goes through the tree's
  // charged read path (60 ns DRAM model per octant) — same accounting as
  // the AoS sweep.
  amr::SoaLeaves soa;
  tree_->extract_leaves_soa(soa.keys, soa.levels, soa.vof, soa.tracer);
  dispatch_soa_chunks(soa, chunks, fn, pool, prepare);
}

std::uint64_t InCoreBackend::structure_version() {
  return recover_version_base_ + tree_->topology_version();
}

std::size_t InCoreBackend::refine_where(const amr::LeafPred& pred,
                                        const amr::ChildInit& init) {
  return tree_->refine_where(pred, init);
}

std::size_t InCoreBackend::coarsen_where(const amr::LeafPred& pred) {
  return tree_->coarsen_where(pred);
}

std::size_t InCoreBackend::balance() { return tree_->balance(); }

CellData InCoreBackend::sample(const LocCode& code) {
  return tree_->sample(code);
}

std::size_t InCoreBackend::leaf_count() { return tree_->leaf_count(); }

void InCoreBackend::snapshot() {
  // Serialize every leaf and write the whole thing through the NVBM file
  // system — the full-state dump Gerris performs with gfs_output_write().
  std::vector<std::byte> blob;
  std::uint64_t count = 0;
  blob.resize(sizeof(count));
  tree_->for_each_leaf([&](const LocCode& code, const CellData& data) {
    SnapRecord rec{};
    rec.key = code.key();
    rec.level = static_cast<std::uint32_t>(code.level());
    rec.data = data;
    const auto at = blob.size();
    blob.resize(at + sizeof(rec));
    std::memcpy(blob.data() + at, &rec, sizeof(rec));
    ++count;
  });
  std::memcpy(blob.data(), &count, sizeof(count));
  auto& file = store_.create(kSnapshotName);
  file.pwrite(0, blob.data(), blob.size());
  file.fsync();
}

void InCoreBackend::end_step(int step) {
  if (config_.snapshot_interval > 0 &&
      (step + 1) % config_.snapshot_interval == 0) {
    snapshot();
  }
}

bool InCoreBackend::recover() {
  if (!store_.exists(kSnapshotName)) return false;
  auto& file = store_.open(kSnapshotName);
  std::vector<std::byte> blob(file.size());
  file.pread(0, blob.data(), blob.size());
  std::uint64_t count = 0;
  PMO_CHECK_MSG(blob.size() >= sizeof(count), "snapshot truncated");
  std::memcpy(&count, blob.data(), sizeof(count));
  PMO_CHECK_MSG(blob.size() >= sizeof(count) + count * sizeof(SnapRecord),
                "snapshot truncated");
  // Rebuild the whole in-memory tree from scratch — the slow path the
  // paper measures at 42.9 s for 6.75M elements.
  retired_ns_ += tree_->modeled_ns();
  recover_version_base_ += tree_->topology_version() + 1;
  tree_ = std::make_unique<pmoctree::PmOctree>(
      pmoctree::PmOctree::create(tree_heap_, dram_only_config()));
  std::size_t at = sizeof(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    SnapRecord rec{};
    std::memcpy(&rec, blob.data() + at, sizeof(rec));
    at += sizeof(rec);
    const auto a = morton_decode3(rec.key);
    const int shift = kMaxLevel - static_cast<int>(rec.level);
    const auto code =
        LocCode::from_grid(static_cast<int>(rec.level), a[0] >> shift,
                           a[1] >> shift, a[2] >> shift);
    tree_->insert(code, rec.data);
  }
  return true;
}

std::uint64_t InCoreBackend::modeled_ns() const {
  // DRAM octree time + snapshot-file NVBM time + file-layer overhead.
  return retired_ns_ + tree_->modeled_ns() +
         snapshot_device_.counters().modeled_ns() +
         store_.counters().modeled_overhead_ns;
}

std::uint64_t InCoreBackend::memory_bytes() {
  return tree_->stats().dram_bytes +
         store_.blocks_in_use() * store_.config().block_size;
}

}  // namespace pmo::baseline
