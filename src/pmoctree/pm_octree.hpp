// PM-octree: persistent merged octree over DRAM + emulated NVBM.
//
// The data structure of the paper (§3). One logical octree, two versions:
//
//  * V_{i-1}: the last persisted version, entirely in NVBM, never mutated.
//    It is the recovery point; pm_restore() returns it in O(1).
//  * V_i: the working version. Hot subtrees (C0) live in DRAM, the rest
//    (C1) in NVBM. V_i shares every unmodified octant with V_{i-1}
//    (copy-on-write path copying, Fig. 4).
//
// Consistency argument (paper §1/§3): no per-write fence is needed because
// V_{i-1} is immutable while V_i is being built; the only update that must
// be atomic and durable is the 8-byte root-address swap at the end of
// persist(). The randomized crash-injection tests exercise precisely this.
//
// Epoch rule: every physical node records the persist epoch in which it
// was created. epoch < current  =>  node may be shared with V_{i-1}, so a
// mutation must copy it (and path-copy its ancestors). epoch == current
// =>  private to V_i, mutable in place. DRAM nodes are always private
// (V_{i-1} is NVBM-only by construction).
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "nvbm/heap.hpp"
#include "octree/octree.hpp"
#include "pmoctree/config.hpp"
#include "pmoctree/node.hpp"
#include "pmoctree/node_cache.hpp"
#include "pmoctree/snapshot.hpp"
#include "telemetry/telemetry.hpp"

namespace pmo::pmoctree {

/// Application feature function (§3.3): returns true when the octant's
/// subdomain is "of interest" — e.g. the refinement predicate or a solver
/// touch predicate. Used by feature-directed sampling, never for physics.
using FeatureFn = std::function<bool(const LocCode&, const CellData&)>;

/// Result of one persist() call (drives Fig. 3 and the replica model).
struct PersistStats {
  std::size_t nodes_total = 0;    ///< octants in V_i at persist time
  std::size_t nodes_shared = 0;   ///< octants shared with V_{i-1}
  std::size_t merged_from_dram = 0;  ///< C0 octants written out to C1
  std::size_t gc_freed = 0;
  std::uint64_t delta_bytes = 0;  ///< replica delta size (new/changed nodes)
  double overlap_ratio = 0.0;     ///< shared / total (the paper's metric)
  /// Octants the merge actually processed (pruned-subtree roots are
  /// skipped in O(1) and count in pruned_subtrees instead). With
  /// dirty-subtree pruning this tracks the dirty frontier, not the tree
  /// size: after mutations to a small fraction of leaves,
  /// visits << nodes_total.
  std::size_t visits = 0;
  /// Clean subtrees skipped in O(1) via their durable twin.
  std::size_t pruned_subtrees = 0;
};

/// Point-in-time structural statistics.
struct PmStats {
  std::size_t nodes = 0;          ///< nodes reachable from V_i
  std::size_t leaves = 0;
  std::size_t dram_nodes = 0;     ///< C0 size in nodes
  std::size_t nvbm_nodes_vi = 0;  ///< V_i nodes resident in NVBM
  std::size_t unique_physical_nodes = 0;  ///< union of V_{i-1} and V_i
  std::size_t dram_bytes = 0;
  std::size_t nvbm_live_bytes = 0;
  int depth = 0;
};

/// Outcome of a dynamic layout transformation check (§3.3).
struct TransformStats {
  bool transformed = false;
  std::size_t subtrees_sampled = 0;
  std::size_t octants_sampled = 0;
  std::size_t moved_to_dram = 0;
  std::size_t evicted_to_nvbm = 0;
  double best_ratio = 0.0;  ///< Ratio_access that triggered (or not)
};

class PmOctree {
 public:
  /// pm_create with an empty (root-only) octree.
  static PmOctree create(nvbm::Heap& heap, PmConfig config = {});
  /// pm_create(octree*): adopts an existing in-core octree (Table 1).
  static PmOctree create_from(nvbm::Heap& heap, const octree::Octree& tree,
                              PmConfig config = {});
  /// pm_restore: attach to a heap holding a persisted version; V_i starts
  /// as an alias of V_{i-1}. O(1) — no octant is copied or read.
  static PmOctree restore(nvbm::Heap& heap, PmConfig config = {});
  /// True when the heap contains a restorable persisted version.
  static bool can_restore(nvbm::Heap& heap);

  PmOctree(PmOctree&&) noexcept = default;
  PmOctree& operator=(PmOctree&&) noexcept = delete;
  PmOctree(const PmOctree&) = delete;
  PmOctree& operator=(const PmOctree&) = delete;

  // ---- queries on the working version V_i --------------------------------

  /// Exact-match lookup; nullopt when the octant does not exist in V_i.
  std::optional<CellData> find(const LocCode& code);
  bool contains(const LocCode& code);
  /// True when the octant exists and has no children.
  bool is_leaf(const LocCode& code);
  /// Data of the leaf whose volume contains `code`.
  CellData sample(const LocCode& code);
  /// Locational code of the leaf containing `code`.
  LocCode leaf_containing(const LocCode& code);

  void for_each_leaf(
      const std::function<void(const LocCode&, const CellData&)>& fn);
  /// Mutable leaf visit. `fn` returns true when it modified the data; the
  /// tree then performs the copy-on-write write-back along the current
  /// DFS path (no re-descent).
  void for_each_leaf_mut(
      const std::function<bool(const LocCode&, CellData&)>& fn);
  /// Like for_each_leaf_mut, but subtrees for which `visit` returns false
  /// are pruned from the traversal (region-restricted solver sweeps).
  void for_each_leaf_mut_pruned(
      const std::function<bool(const LocCode&)>& visit,
      const std::function<bool(const LocCode&, CellData&)>& fn);
  void for_each_node(const std::function<void(const LocCode&, const CellData&,
                                              bool leaf)>& fn);
  /// Extended node visit that also reports the residence tier (for tests
  /// and layout diagnostics).
  void for_each_node_ex(
      const std::function<void(const LocCode&, const CellData&, bool leaf,
                               bool in_dram)>& fn);
  /// Read-only traversal of the persisted version V_{i-1}. Sugar for the
  /// snapshot overload against the latest durable epoch.
  void for_each_leaf_prev(
      const std::function<void(const LocCode&, const CellData&)>& fn);
  /// Read-only traversal of an explicitly pinned persisted version —
  /// for_each_leaf_prev generalized beyond the implicit latest V_{i-1}.
  /// Owner-thread only (charged through the tree's nv_load path);
  /// concurrent readers use the src/serve engine instead.
  void for_each_leaf_snapshot(
      const SnapshotHandle& snap,
      const std::function<void(const LocCode&, const CellData&)>& fn);

  /// Charged SoA leaf extraction: appends every V_i leaf, in the same
  /// Morton (DFS pre-order) enumeration as for_each_leaf, into parallel
  /// key/level/vof/tracer arrays — the snapshot shape the solve's
  /// neighbor-index build and gather consume. Every octant goes through
  /// the normal read_node charging, exactly as for_each_leaf's reads.
  void extract_leaves_soa(std::vector<std::uint64_t>& keys,
                          std::vector<std::uint8_t>& levels,
                          std::vector<double>& vof,
                          std::vector<double>& tracer);

  std::size_t node_count();
  std::size_t leaf_count();
  int depth() const noexcept { return depth_; }
  bool has_prev_version() const noexcept { return !prev_root_.null(); }

  // ---- mutation of V_i ----------------------------------------------------

  /// Ensures the octant exists (creating ancestors as needed) and sets its
  /// payload. Copy-on-write applies to any shared node on the path.
  void insert(const LocCode& code, const CellData& data);
  /// Updates an existing octant's payload (Fig. 4b).
  void update(const LocCode& code, const CellData& data);
  /// Removes the subtree rooted at `code` from V_i. NVBM octants still
  /// referenced by V_{i-1} are retired, not freed (§3.2, Deletion): a
  /// persist frees them once no pinned version reaches them, and nothing
  /// is written into their bytes meanwhile.
  void remove(const LocCode& code);
  /// Splits a leaf into 8 children (children inherit data; `init` may
  /// override).
  void refine(const LocCode& leaf,
              const std::function<void(const LocCode&, CellData&)>& init =
                  nullptr);
  /// Drops all (leaf) children of `parent` in V_i, averaging their data
  /// into the parent.
  void coarsen(const LocCode& parent);

  std::size_t refine_where(
      const std::function<bool(const LocCode&, const CellData&)>& pred,
      const std::function<void(const LocCode&, CellData&)>& init = nullptr);
  std::size_t coarsen_where(
      const std::function<bool(const LocCode&, const CellData&)>& pred);
  /// 2:1 balance of V_i (ripple refinement).
  std::size_t balance();
  bool is_balanced();

  // ---- persistence & versioning -------------------------------------------

  /// pm_persistent: merge C0 into C1, make V_i durable, atomically swap the
  /// persistent root, free what the superseded version alone held (the
  /// retire list; the full gc() on the first persist after a restore), run
  /// the dynamic layout transformation, and evict C0 subtrees back within
  /// the budget: C0 overflows only between persists (DESIGN.md §5).
  PersistStats persist();

  /// Full mark-and-sweep: frees every NVBM object unreachable from both
  /// roots AND from every pinned snapshot (epoch-based reclamation — see
  /// snapshot.hpp). The recovery collector: it reclaims what a crash or
  /// an abandoned working version stranded, which no retire list saw,
  /// and so rebuilds the free state of a re-attached heap, which counts
  /// every slot below its durable high-water mark as allocated.
  /// restore() schedules it for the first persist; callers may run it
  /// earlier. Returns the number of objects reclaimed.
  std::size_t gc();

  // ---- snapshot pinning & epoch-based reclamation --------------------------

  /// Pins the latest durable version (the epoch sealed by the last
  /// persist()) and returns a refcounted handle onto it. While any handle
  /// on an epoch lives, every node reachable from that version keeps its
  /// bytes: persist() frees no retired octant that version reaches and
  /// gc() treats the pinned root as live, while the mutator never writes
  /// into a sealed version at all. Pinning and releasing are safe from any
  /// thread; everything else on this class stays owner-thread-only.
  /// Requires has_prev_version().
  SnapshotHandle pin_snapshot();
  /// Distinct epochs currently pinned.
  std::size_t pinned_epochs() const noexcept {
    return registry_->pin_count();
  }
  /// Nodes the last reclamation (persist or gc()) kept alive solely
  /// because a pinned snapshot could still reach them (0 when nothing is
  /// pinned).
  std::size_t deferred_reclaim_nodes() const noexcept {
    return deferred_nodes_;
  }
  /// Lifetime high-water mark of deferred_reclaim_nodes().
  std::size_t deferred_reclaim_high_water() const noexcept {
    return deferred_hwm_;
  }
  /// Lifetime pin / unpin totals (mirrored to pmoctree.snapshot.*).
  std::uint64_t snapshot_pins() const { return registry_->pins_taken(); }
  std::uint64_t snapshot_unpins() const {
    return registry_->pins_released();
  }
  /// Epoch of the latest durable (pinnable) version; 0 when nothing has
  /// been persisted yet. Unlike epoch(), safe from any thread — serve
  /// readers poll it to measure snapshot staleness.
  std::uint32_t snapshot_published_epoch() const {
    return registry_->published().epoch;
  }

  /// pm_delete: frees all octants in both tiers and clears the roots.
  void destroy();

  // ---- feature-directed sampling / layout (§3.3) --------------------------

  void register_feature(FeatureFn fn) {
    features_.push_back(std::move(fn));
  }
  void clear_features() { features_.clear(); }

  /// Runs the transformation check and, when Ratio_access > T_transform,
  /// re-lays out the tree (hot NVBM subtree into DRAM, coldest C0 subtree
  /// out). Called automatically by persist(); exposed for tests/ablations.
  TransformStats maybe_transform();

  /// Feature-directed sampling census of one subtree bucket (§3.3). The
  /// persist-time merge collects these on the fly so the transformation
  /// needs no extra tree traversal.
  struct SampleBucket {
    std::vector<std::pair<LocCode, CellData>> sample;
    std::size_t size = 0;
    std::size_t dram = 0;
  };
  using SampleCensus =
      std::unordered_map<LocCode, SampleBucket, LocCodeHash>;

  /// The paper's Eq. 1 subtree level, from current depth and DRAM budget.
  int subtree_level() const noexcept;

  /// Current (possibly auto-adapted) C0 DRAM budget in bytes.
  std::size_t dram_budget() const noexcept {
    return config_.dram_budget_bytes;
  }

  // ---- accounting ----------------------------------------------------------

  PmStats stats();
  const DramCounters& dram_counters() const noexcept { return dram_; }
  const PmConfig& config() const noexcept { return config_; }
  /// Sets PmConfig::crash_for_test on a live tree — crash tests persist
  /// normally first, then arm the hook for the persist they want to die
  /// inside.
  void set_crash_for_test(CrashPoint at) noexcept {
    config_.crash_for_test = at;
  }
  nvbm::Heap& heap() noexcept { return heap_; }
  nvbm::Device& device() noexcept { return heap_.device(); }
  std::uint32_t epoch() const noexcept { return epoch_; }
  /// Root of the working version V_i (ADDR(V_i) in the paper).
  NodeRef current_root() const noexcept { return cur_root_; }
  /// Root of the persisted version V_{i-1} (ADDR(V_{i-1})).
  NodeRef previous_root() const noexcept { return prev_root_; }
  /// Total modeled memory time (DRAM + NVBM) in nanoseconds.
  std::uint64_t modeled_ns() const;
  /// Number of C0->C1 subtree merges forced by DRAM pressure (the merge
  /// count the paper reports in the Fig. 10 DRAM-size study).
  std::size_t eviction_merges() const noexcept { return eviction_merges_; }
  /// Lifetime hit/miss/eviction/invalidation counts of the hot-node cache
  /// (all zero when config().node_cache_bytes == 0).
  const NodeCache::Stats& node_cache_stats() const noexcept {
    return cache_.stats();
  }
  /// Version stamp of the leaf SET: bumped only by mutations that change
  /// which octants exist — insert-created nodes, refine, coarsen,
  /// remove. Data updates, CoW relocations, persist, GC and layout
  /// transformation leave it unchanged (they move bytes, not octants).
  /// Equal stamps guarantee identical (key, level) leaf enumerations —
  /// the invalidation contract of the solve's face-neighbor index.
  std::uint64_t topology_version() const noexcept {
    return topology_version_;
  }
  void reset_counters();

  // Durable root-table slots (public for tests & crash tooling).
  static constexpr int kPrevRootSlot = 0;
  static constexpr int kEpochSlot = 1;
  /// Logical octant count of the persisted version, written (before the
  /// root swap) so restore() recovers nodes_total without a traversal.
  static constexpr int kNodeCountSlot = 2;

 private:
  PmOctree(nvbm::Heap& heap, PmConfig config);

  // node access layer ------------------------------------------------------
  PNode read_node(NodeRef ref);
  void write_node(NodeRef ref, const PNode& node);
  NodeRef alloc_node(const PNode& proto, bool prefer_dram);
  /// Takes a C0 slot (free list first, else a fresh pool entry) and
  /// counts it against the DRAM budget; the caller fills and charges it.
  PNode* take_dram_slot();
  void free_node(NodeRef ref);
  /// C0 access charges: the lines copied at the device's DRAM latency,
  /// the cost model nvbm::Config holds for every tier.
  void charge_dram_read(std::size_t bytes);
  void charge_dram_write(std::size_t bytes);
  void touch_heat(const LocCode& code, double amount);
  /// Cache-aware NVBM node read through load_node: serves hits from the
  /// hot-node cache at DRAM latency, admits misses. The descent path's
  /// only NVBM read; hit or miss, it is charged for the lines it copies.
  PNode nv_load(std::uint64_t offset);
  /// NVBM node store with cache write-through. Every PNode store to the
  /// device MUST go through here (or write_node) to keep the cache
  /// coherent within an epoch.
  void nv_store(std::uint64_t offset, const PNode& node);
  /// NVBM node free with cache invalidation: the offset may be handed out
  /// again by the heap within the same epoch, so the epoch stamp alone
  /// cannot protect a cached copy.
  void nv_free(std::uint64_t offset);
  /// Partial NVBM node store: writes only [field_off, field_off+len) of
  /// the node image (the payload line, the link line, the flags word),
  /// charging the device for the touched lines only. Every partial-store
  /// site guarantees the untouched device bytes the mask makes readable
  /// already equal `full`'s, so every later read sees what a full store
  /// would have left. The cache stays coherent via a full-node update.
  void nv_store_partial(std::uint64_t offset, std::size_t field_off,
                        std::size_t len, const PNode& full);

  // placement --------------------------------------------------------------
  LocCode subtree_id(const LocCode& code) const;
  /// Placement for brand-new octants (insert/refine children): DRAM while
  /// there is headroom, or while the octant's subtree is C0-designated
  /// (hot), matching "an octant inserted into C0 is eventually merged out
  /// to C1" (§3.2).
  bool place_new(const LocCode& code) const;
  /// True when the octant's subtree is C0-designated (hot) and the DRAM
  /// overflow ceiling is not yet hit. Used by place_new; hot subtrees may
  /// transiently exceed the plain budget.
  bool place_cow(const LocCode& code) const;
  std::size_t dram_bytes() const noexcept {
    return dram_node_count_ * sizeof(PNode);
  }
  void enforce_dram_budget();

  // structural helpers ------------------------------------------------------
  struct PathEntry {
    NodeRef ref;
    PNode node;
  };
  using Path = std::vector<PathEntry>;
  /// Descends from the V_i root to the deepest existing ancestor of
  /// `code`, reading every octant on the way through read_node; fills
  /// `path` (path[0] = root). Returns true when the exact octant exists
  /// (path.back() is it).
  bool descend(const LocCode& code, Path& path);
  /// Makes path[i]'s node mutable in place (copy-on-write as needed),
  /// updating the path and parent links. Returns the (possibly new) ref.
  NodeRef make_mutable(Path& path, std::size_t i);
  /// Write-back of a data mutation along a traversal path, in either
  /// tier: the payload line alone (the link line is unchanged by
  /// construction).
  void write_back_data(PathEntry& e);
  /// Write-back of a relink that keeps the presence mask (CoW parent
  /// fix-up, eviction and transformation relinks): the link line alone.
  void write_back_links(NodeRef ref, const PNode& node);
  /// Write-back of a children store that moves the mask (sibling-group
  /// creation, refine, remove): the link line plus the flags word.
  void write_back_children(NodeRef ref, const PNode& node);
  /// Debug invariant checked at the end of every persist: no two C0
  /// octants share a twin offset, and every twin is an allocated slot.
  void check_twins() const;
  /// Converts the whole subtree to NVBM residence (the eviction path of
  /// the merge routine: the DRAM copies are dropped).
  NodeRef nvbmify(NodeRef ref, std::size_t* moved);
  /// The persist-time merge: ensures every octant of V_i has an NVBM
  /// representative. DRAM octants get durable *twins* (reused when the
  /// octant and its subtree are unchanged since the last persist); the
  /// DRAM copies remain as the working C0. Returns the persistent ref and
  /// whether it differs from the previous version's.
  struct MergeResult {
    NodeRef wref;           ///< working-version ref (may change: NVBM
                            ///< nodes above DRAM children migrate to DRAM)
    NodeRef pref;           ///< persistent-version ref (always NVBM)
    bool changed = false;   ///< pref differs from the previous version's
  };
  /// One pruned DFS over the dirty fringe of V_i: skips clean DRAM
  /// subtrees that have a twin, writes fresh twins, splits private NVBM
  /// nodes above DRAM children. Accumulates visits/pruning/merge counts
  /// into `stats` and the number of octants new vs V_{i-1} into `changed`.
  MergeResult persist_subtree(NodeRef ref, PersistStats& stats,
                              std::size_t& changed);
  /// Stamps kNodeSubtreeDirty on the DRAM prefix of path[0..i] (the
  /// mutation's ancestor chain). NVBM entries are skipped: a shared NVBM
  /// ancestor gets CoW-copied (fresh epoch) before any descendant
  /// mutation lands, and epoch == current already forces a merge visit.
  void mark_dirty_path(Path& path, std::size_t i);
  /// Standalone post-merge sampling census walk (read-only).
  /// Decoupled from the merge so pruning cannot starve the
  /// transformation's sample of clean subtrees.
  void collect_census(NodeRef ref, SampleCensus& census);
  /// Adds one octant to the sampling census (reservoir per subtree).
  void census_add(SampleCensus& census, const LocCode& code,
                  const CellData& data, bool in_dram);
  /// Transformation decision/relayout over a precollected census.
  TransformStats transform_with(SampleCensus& census);
  /// Copies/moves an NVBM subtree into DRAM (layout transformation).
  NodeRef dramify(NodeRef ref, std::size_t* moved, std::size_t node_limit);
  void collect_reachable_nvbm(NodeRef root,
                              std::unordered_set<std::uint64_t>& out);
  /// Shared DFS behind for_each_leaf_prev / for_each_leaf_snapshot.
  void for_each_leaf_from(
      NodeRef root,
      const std::function<void(const LocCode&, const CellData&)>& fn);
  /// Drops the subtree at `ref` from V_i: frees its private octants and
  /// retires the shared ones. Returns the number of logical octants
  /// removed.
  std::size_t free_subtree(NodeRef ref);
  /// Records an NVBM offset that just left the working tree while a
  /// sealed version may still reference it; `born` is the epoch stamped
  /// in the octant, or 0 when the caller has not read it (twins).
  void retire(std::uint64_t offset, std::uint32_t born) {
    retired_.push_back({born, epoch_ - 1, offset});
  }
  /// Frees, in ascending offset order, every retired offset no pinned
  /// version can reach. Returns the number freed.
  std::size_t reclaim_retired();
  /// Telemetry shared by reclaim_retired() and gc().
  void note_reclaimed(std::size_t freed, std::size_t invalidated);

  void note_depth(int level) noexcept {
    if (level > depth_) depth_ = level;
  }

  /// Cached handles into the process-global telemetry registry, resolved
  /// once at construction so the increment paths are single relaxed
  /// atomics (no name lookup). All counters aggregate across PmOctree
  /// instances; benches delta around a run to isolate one tree.
  struct TelemetryCounters {
    telemetry::Counter* cow_copies;        ///< pmoctree.cow_copies
    telemetry::Counter* twin_reuse;        ///< pmoctree.merge.twin_reuse
    telemetry::Counter* merged_from_dram;  ///< pmoctree.merge.merged_from_dram
    telemetry::Counter* evictions;         ///< pmoctree.merge.evictions
    telemetry::Counter* persists;          ///< pmoctree.persists
    telemetry::Counter* gc_sweeps;         ///< pmoctree.gc.sweeps
    telemetry::Counter* gc_freed;          ///< pmoctree.gc.freed
    telemetry::Counter* transform_runs;    ///< pmoctree.transform.runs
    telemetry::Counter* transform_moved_to_dram;
    telemetry::Counter* transform_evicted_to_nvbm;
    telemetry::Counter* cache_hits;          ///< pmoctree.cache.hits
    telemetry::Counter* cache_misses;        ///< pmoctree.cache.misses
    telemetry::Counter* cache_evictions;     ///< pmoctree.cache.evictions
    telemetry::Counter* cache_invalidations; ///< pmoctree.cache.invalidations
    telemetry::Counter* persist_visits;      ///< pmoctree.persist.visits
    telemetry::Counter* persist_pruned;  ///< pmoctree.persist.pruned_subtrees
  };

  // state --------------------------------------------------------------------
  nvbm::Heap& heap_;
  PmConfig config_;
  /// Eq. 1's floor(log_8(budget nodes)), re-evaluated only where
  /// config_.dram_budget_bytes is assigned (construction, auto-budget).
  int eq1_span_;
  TelemetryCounters tm_;

  /// A C0 slot: one PNode on a 64-byte boundary, so its payload line is
  /// one host cache line. Node-cache entries keep the unaligned PNode.
  struct alignas(64) DramSlot {
    PNode node;
  };
  static_assert(sizeof(DramSlot) == sizeof(PNode));
  std::deque<DramSlot> dram_pool_;
  std::vector<PNode*> dram_free_;
  std::size_t dram_node_count_ = 0;
  /// Durable twin (NVBM offset) of each DRAM octant, recorded at the last
  /// persist. A DRAM node whose epoch is older than the current one and
  /// whose children's persistent refs are unchanged reuses its twin —
  /// that is how C0 octants participate in version sharing (Fig. 2).
  std::unordered_map<const PNode*, std::uint64_t> twins_;

  NodeRef cur_root_;
  NodeRef prev_root_;
  /// Pin table shared with every SnapshotHandle (shared_ptr so handles
  /// survive tree moves). The ONLY tree state reader threads may touch.
  std::shared_ptr<SnapshotRegistry> registry_;
  /// Retire list: NVBM offsets that left the working tree while a sealed
  /// version may still reference them — CoW originals, the shared nodes
  /// a removal walks, the twins of dropped DRAM octants and the twins a
  /// merge replaced. Each is tagged with the version the previous persist
  /// sealed when it was retired: the working version never reaches it
  /// again and no later version does. No version older than the epoch
  /// stamped in the octant does either, so only a pin within
  /// [born, sealed] keeps it. `born` is 0 until read for a twin.
  struct Retired {
    std::uint32_t born;
    std::uint32_t sealed;
    std::uint64_t offset;
  };
  std::vector<Retired> retired_;
  /// Set by restore(): the first persist runs the full gc() to reclaim
  /// what the lost working version stranded. Cleared by gc().
  bool recovery_gc_due_ = false;
  std::size_t deferred_nodes_ = 0;  ///< kept only by pins, last reclamation
  std::size_t deferred_hwm_ = 0;
  std::uint32_t epoch_ = 1;
  int depth_ = 0;
  /// Logical octant count of V_i, maintained incrementally by every
  /// structural mutation (insert/refine add, remove/coarsen subtract).
  /// This is what PersistStats::nodes_total reports — the merge no longer
  /// traverses the whole tree, so it cannot count.
  std::size_t logical_nodes_ = 0;

  std::vector<FeatureFn> features_;
  /// Access heat per subtree id (decayed at each persist).
  std::unordered_map<LocCode, double, LocCodeHash> heat_;
  /// touch_heat's memo of the last subtree it charged, so a run of
  /// accesses inside one subtree pays the hash once. Map values keep
  /// their address across rehash and move construction; destroy() holds
  /// the only heat_.clear() and resets the memo with it.
  LocCode heat_memo_id_;
  double* heat_memo_ = nullptr;
  /// Subtree ids currently designated DRAM-resident (the C0 set).
  std::unordered_set<LocCode, LocCodeHash> c0_set_;

  /// Hot-node cache over NVBM-resident octants (empty when
  /// node_cache_bytes == 0); see node_cache.hpp for the coherence rules.
  NodeCache cache_;
  /// Leaf-SET stamp (see topology_version()).
  std::uint64_t topology_version_ = 0;

  DramCounters dram_;
  std::size_t eviction_merges_ = 0;
  /// Access totals at the last auto-budget adjustment.
  std::uint64_t auto_last_dram_ = 0;
  std::uint64_t auto_last_nvbm_ = 0;
  mutable Rng rng_{0xfeedc0de};
};

}  // namespace pmo::pmoctree
