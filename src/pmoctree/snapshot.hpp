// Snapshot pinning: refcounted handles onto persisted epochs.
//
// Every persist() seals an immutable NVBM-resident version V_{i-1}. A
// SnapshotHandle pins one such version so concurrent readers (src/serve)
// can traverse it while the mutator keeps refining and persisting. The
// pin set feeds epoch-based reclamation inside PmOctree:
//
//  * persist() frees a retired octant only once no pin is on a version
//    that held it, and gc() adds every pinned root's reachable set to
//    its live set, so no node a reader can still reach is ever freed or
//    reused;
//  * nothing ever writes into a sealed version: the mutator copies a
//    shared octant before changing it and retires the original in DRAM,
//    so the bytes a reader memcpys stay as they were sealed.
//
// Concurrency model: the registry is the ONLY PmOctree state that reader
// threads touch. pin/unpin take a small mutex (never held while doing
// tree work); the mutator takes it only once per persist/gc. Handles are
// shared_ptr-backed so they stay safe across PmOctree moves; they must
// not outlive the heap/device (the bytes they let readers address).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "telemetry/telemetry.hpp"

namespace pmo::nvbm {
class Device;
}

namespace pmo::pmoctree {

/// Shared pin table between one PmOctree and all of its SnapshotHandles.
/// Internal to the snapshot layer; users only see SnapshotHandle.
class SnapshotRegistry {
 public:
  struct Pinned {
    std::uint64_t root = 0;      ///< NVBM offset of the version's root
    std::uint32_t epoch = 0;     ///< epoch sealed by the persist
    std::size_t nodes = 0;       ///< logical octants in the version
  };

  /// Wires the pmoctree.snapshot.{pins,unpins} telemetry mirrors (the
  /// owning tree resolves them once at construction).
  void set_counters(telemetry::Counter* pins,
                    telemetry::Counter* unpins) noexcept {
    pins_c_ = pins;
    unpins_c_ = unpins;
  }

  /// Called by persist()/restore() after the root swap: the version at
  /// `root` is durable and becomes the target of future pins.
  void publish(std::uint64_t root, std::uint32_t epoch, std::size_t nodes) {
    std::lock_guard lk(mu_);
    pub_ = Pinned{root, epoch, nodes};
  }

  /// Pins the latest published version (refcount +1). Returns false when
  /// nothing has been persisted yet.
  bool pin_latest(Pinned& out) {
    std::lock_guard lk(mu_);
    if (pub_.root == 0) return false;
    auto [it, fresh] = pins_.try_emplace(pub_.epoch, Entry{pub_.root, 0});
    (void)fresh;
    ++it->second.refs;
    ++pins_taken_;
    if (pins_c_ != nullptr) pins_c_->add();
    out = pub_;
    return true;
  }

  /// Refcount +1 on an already-pinned epoch (handle copy).
  void ref(std::uint32_t epoch) {
    std::lock_guard lk(mu_);
    const auto it = pins_.find(epoch);
    PMO_CHECK_MSG(it != pins_.end(),
                  "snapshot ref of unpinned epoch " << epoch);
    ++it->second.refs;
  }

  /// Refcount -1; the epoch leaves the pin set at zero.
  void unpin(std::uint32_t epoch) {
    std::lock_guard lk(mu_);
    const auto it = pins_.find(epoch);
    PMO_CHECK_MSG(it != pins_.end(),
                  "snapshot unpin of unpinned epoch " << epoch);
    if (--it->second.refs == 0) pins_.erase(it);
    ++pins_released_;
    if (unpins_c_ != nullptr) unpins_c_->add();
  }

  /// Distinct pinned epochs right now.
  std::size_t pin_count() const {
    std::lock_guard lk(mu_);
    return pins_.size();
  }

  /// (epoch, root) of every pinned version, ascending by epoch — the
  /// deterministic iteration order gc()'s live-set walk relies on, and
  /// the sorted order persist()'s retire-list check searches.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> pinned_roots() const {
    std::lock_guard lk(mu_);
    std::vector<std::pair<std::uint32_t, std::uint64_t>> out;
    out.reserve(pins_.size());
    for (const auto& [epoch, e] : pins_) out.emplace_back(epoch, e.root);
    return out;
  }

  /// Latest published (pinnable) version; root == 0 when none.
  Pinned published() const {
    std::lock_guard lk(mu_);
    return pub_;
  }

  /// Lifetime pin/unpin totals (telemetry mirrors).
  std::uint64_t pins_taken() const {
    std::lock_guard lk(mu_);
    return pins_taken_;
  }
  std::uint64_t pins_released() const {
    std::lock_guard lk(mu_);
    return pins_released_;
  }

 private:
  struct Entry {
    std::uint64_t root = 0;
    std::size_t refs = 0;
  };

  mutable std::mutex mu_;
  std::map<std::uint32_t, Entry> pins_;
  Pinned pub_{};
  std::uint64_t pins_taken_ = 0;
  std::uint64_t pins_released_ = 0;
  telemetry::Counter* pins_c_ = nullptr;
  telemetry::Counter* unpins_c_ = nullptr;
};

/// Refcounted pin on one persisted epoch. Obtained from
/// PmOctree::pin_snapshot(); copyable (shares the pin), movable. While
/// any handle on an epoch is alive, every node reachable from that
/// epoch's root keeps its bytes: no reclamation frees it, and the mutator
/// never writes into a sealed version. Handles may be released from any
/// thread; the underlying device must outlive every handle.
class SnapshotHandle {
 public:
  SnapshotHandle() = default;

  SnapshotHandle(const SnapshotHandle& o)
      : reg_(o.reg_), device_(o.device_), pin_(o.pin_) {
    if (reg_) reg_->ref(pin_.epoch);
  }
  SnapshotHandle& operator=(const SnapshotHandle& o) {
    if (this != &o) {
      SnapshotHandle copy(o);
      *this = std::move(copy);
    }
    return *this;
  }
  SnapshotHandle(SnapshotHandle&& o) noexcept { *this = std::move(o); }
  SnapshotHandle& operator=(SnapshotHandle&& o) noexcept {
    if (this != &o) {
      release();
      reg_ = std::move(o.reg_);
      device_ = o.device_;
      pin_ = o.pin_;
      o.reg_.reset();
      o.device_ = nullptr;
      o.pin_ = {};
    }
    return *this;
  }
  ~SnapshotHandle() { release(); }

  /// Drops this handle's pin (idempotent). The epoch becomes reclaimable
  /// once its last handle releases.
  void release() {
    if (reg_) {
      reg_->unpin(pin_.epoch);
      reg_.reset();
      device_ = nullptr;
      pin_ = {};
    }
  }

  bool valid() const noexcept { return reg_ != nullptr; }
  /// Epoch this handle pins (the value persist() sealed into kEpochSlot).
  std::uint32_t epoch() const noexcept { return pin_.epoch; }
  /// NVBM offset of the pinned version's root node.
  std::uint64_t root_offset() const noexcept { return pin_.root; }
  /// Logical octant count of the pinned version.
  std::size_t logical_nodes() const noexcept { return pin_.nodes; }
  /// Device holding the pinned bytes (for read-only serve traversals).
  nvbm::Device& device() const noexcept { return *device_; }

 private:
  friend class PmOctree;
  SnapshotHandle(std::shared_ptr<SnapshotRegistry> reg, nvbm::Device* dev,
                 SnapshotRegistry::Pinned pin)
      : reg_(std::move(reg)), device_(dev), pin_(pin) {}

  std::shared_ptr<SnapshotRegistry> reg_;
  nvbm::Device* device_ = nullptr;
  SnapshotRegistry::Pinned pin_{};
};

}  // namespace pmo::pmoctree
