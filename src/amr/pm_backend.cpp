#include "amr/pm_backend.hpp"

#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace pmo::amr {

namespace {
/// Persist/replica work renders on its own thread row of the process
/// track, so fig03's compute and persist slices visibly overlap.
constexpr std::uint32_t kPersistTid = 1000;
}  // namespace

PmOctreeBackend::PmOctreeBackend(nvbm::Device& device,
                                 pmoctree::PmConfig pm)
    : heap_(device), pm_(pm) {
  tree_ = pmoctree::pm_create(heap_, nullptr, pm_);
}

void PmOctreeBackend::end_step(int) {
  // Keep the persist pipeline on a dedicated trace row (same pid the
  // caller picked, different tid) so it renders against the compute
  // slices instead of nesting under them.
  const auto track = telemetry::trace::current_track();
  telemetry::trace::TrackGuard persist_track(track.pid, kPersistTid);
  if (telemetry::trace::active()) {
    telemetry::trace::name_thread(track.pid, kPersistTid, "persist");
  }
  last_persist_ = tree_->persist();
  if (pm_.enable_replica) {
    telemetry::Span span("pmoctree.replica_ship");
    replica_bytes_ += replica_mgr_.ship(*tree_, replica_);
  }
}

bool PmOctreeBackend::recover() {
  if (!pmoctree::PmOctree::can_restore(heap_)) {
    telemetry::trace::audit("amr.recover", {{"ok", 0.0}});
    return false;
  }
  retired_ns_ += tree_->dram_counters().modeled_ns();
  recover_version_base_ += tree_->topology_version() + 1;
  tree_ = pmoctree::pm_restore(heap_, pm_);
  telemetry::trace::audit("amr.recover", {{"ok", 1.0}});
  return true;
}

}  // namespace pmo::amr
