#include "pmoctree/pm_octree.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <functional>

#include "telemetry/timeseries.hpp"
#include "telemetry/trace.hpp"

namespace pmo::pmoctree {

namespace {
constexpr std::size_t kNodeSize = sizeof(PNode);

std::size_t lines_for(std::size_t bytes, std::size_t line) noexcept {
  return (bytes + line - 1) / line;
}

/// Eq. 1's floor(log_Fanout(Size_DRAM)): the depth span of a subtree
/// whose octants fill a `budget_bytes` C0.
int eq1_span(std::size_t budget_bytes) {
  const double budget_nodes = std::max<double>(
      1.0, static_cast<double>(budget_bytes) / kNodeSize);
  return static_cast<int>(std::floor(std::log(budget_nodes) / std::log(8.0)));
}
}  // namespace

// ---------------------------------------------------------------------------
// construction / restore
// ---------------------------------------------------------------------------

PmOctree::PmOctree(nvbm::Heap& heap, PmConfig config)
    : heap_(heap),
      config_(config),
      eq1_span_(eq1_span(config.dram_budget_bytes)),
      cache_(config.node_cache_bytes) {
  auto& reg = telemetry::Registry::global();
  tm_.cow_copies = &reg.counter("pmoctree.cow_copies");
  tm_.twin_reuse = &reg.counter("pmoctree.merge.twin_reuse");
  tm_.merged_from_dram = &reg.counter("pmoctree.merge.merged_from_dram");
  tm_.evictions = &reg.counter("pmoctree.merge.evictions");
  tm_.persists = &reg.counter("pmoctree.persists");
  tm_.gc_sweeps = &reg.counter("pmoctree.gc.sweeps");
  tm_.gc_freed = &reg.counter("pmoctree.gc.freed");
  tm_.transform_runs = &reg.counter("pmoctree.transform.runs");
  tm_.transform_moved_to_dram =
      &reg.counter("pmoctree.transform.moved_to_dram");
  tm_.transform_evicted_to_nvbm =
      &reg.counter("pmoctree.transform.evicted_to_nvbm");
  tm_.cache_hits = &reg.counter("pmoctree.cache.hits");
  tm_.cache_misses = &reg.counter("pmoctree.cache.misses");
  tm_.cache_evictions = &reg.counter("pmoctree.cache.evictions");
  tm_.cache_invalidations = &reg.counter("pmoctree.cache.invalidations");
  tm_.persist_visits = &reg.counter("pmoctree.persist.visits");
  tm_.persist_pruned = &reg.counter("pmoctree.persist.pruned_subtrees");
  registry_ = std::make_shared<SnapshotRegistry>();
  registry_->set_counters(&reg.counter("pmoctree.snapshot.pins"),
                          &reg.counter("pmoctree.snapshot.unpins"));
}

PmOctree PmOctree::create(nvbm::Heap& heap, PmConfig config) {
  PmOctree tree(heap, config);
  // Clean slate: drop any roots and reclaim every object on the heap.
  heap.set_root(kPrevRootSlot, 0);
  heap.set_root(kEpochSlot, 0);
  heap.set_root(kNodeCountSlot, 0);
  heap.sweep([](std::uint64_t) { return false; });
  PNode root{};
  root.set_code(LocCode::root());
  root.epoch = tree.epoch_;
  tree.cur_root_ = tree.alloc_node(root, true);
  tree.logical_nodes_ = 1;
  return tree;
}

PmOctree PmOctree::create_from(nvbm::Heap& heap, const octree::Octree& src,
                               PmConfig config) {
  PmOctree tree = create(heap, config);
  // Mirror the volatile tree (the paper's pm_create(octree*) adoption).
  std::function<void(const octree::Node&)> copy =
      [&](const octree::Node& n) {
        tree.insert(n.code, n.data);
        for (const auto* c : n.children)
          if (c != nullptr) copy(*c);
      };
  copy(*src.root());
  return tree;
}

bool PmOctree::can_restore(nvbm::Heap& heap) {
  const bool ok = heap.root(kPrevRootSlot) != 0;
  telemetry::trace::audit("pmoctree.can_restore",
                          {{"ok", ok ? 1.0 : 0.0}});
  return ok;
}

PmOctree PmOctree::restore(nvbm::Heap& heap, PmConfig config) {
  telemetry::Span span("pmoctree.restore");
  telemetry::trace::audit(
      "pmoctree.restore",
      {{"epoch", static_cast<double>(heap.root(kEpochSlot))}});
  PmOctree tree(heap, config);
  const std::uint64_t root_off = heap.root(kPrevRootSlot);
  PMO_CHECK_MSG(root_off != 0, "pm_restore: no persisted version in heap");
  PMO_CHECK_MSG(heap.is_allocated(root_off),
                "pm_restore: persistent root does not address a live object");
  tree.prev_root_ = NodeRef::nvbm(root_off);
  // V_i starts as an alias of V_{i-1}: O(1) recovery — nothing is copied.
  tree.cur_root_ = tree.prev_root_;
  tree.epoch_ =
      static_cast<std::uint32_t>(heap.root(kEpochSlot)) + 1;
  // The persisted version's logical octant count, written just before the
  // root swap — keeps nodes_total available without a traversal.
  tree.logical_nodes_ =
      static_cast<std::size_t>(heap.root(kNodeCountSlot));
  // The restored version is durable by definition: publish it so readers
  // can pin it before the first post-recovery persist.
  tree.registry_->publish(root_off,
                          static_cast<std::uint32_t>(heap.root(kEpochSlot)),
                          tree.logical_nodes_);
  // Whatever the lost working version allocated is unreachable and was
  // never retired: the first persist reclaims it with a full gc().
  tree.recovery_gc_due_ = true;
  // Depth is re-learned lazily; seed it from the persisted root's subtree
  // on first stats() call. Keep 0 here to stay O(1).
  return tree;
}

// ---------------------------------------------------------------------------
// node access layer
// ---------------------------------------------------------------------------

void PmOctree::charge_dram_read(std::size_t bytes) {
  const nvbm::Config& c = device().config();
  ++dram_.reads;
  const auto lines = lines_for(bytes, c.cache_line);
  dram_.lines_read += lines;
  dram_.modeled_read_ns += lines * c.dram_read_ns;
}

void PmOctree::charge_dram_write(std::size_t bytes) {
  const nvbm::Config& c = device().config();
  ++dram_.writes;
  const auto lines = lines_for(bytes, c.cache_line);
  dram_.lines_written += lines;
  dram_.modeled_write_ns += lines * c.dram_write_ns;
}

void PmOctree::touch_heat(const LocCode& code, double amount) {
  const LocCode id = subtree_id(code);
  if (heat_memo_ == nullptr || !(id == heat_memo_id_)) {
    heat_memo_ = &heat_[id];
    heat_memo_id_ = id;
  }
  *heat_memo_ += amount;
}

PNode PmOctree::read_node(NodeRef ref) {
  PMO_DCHECK(!ref.null());
  if (ref.in_dram()) {
    const PNode node = load_node(ref.dram_ptr());
    charge_dram_read(read_bytes(node));
    touch_heat(node.code(), 1.0);
    return node;
  }
  const PNode node = nv_load(ref.nvbm_offset());
  touch_heat(node.code(), 1.0);
  return node;
}

PNode PmOctree::nv_load(std::uint64_t offset) {
  const PNode* hit =
      cache_.capacity() != 0 ? cache_.lookup(offset, epoch_) : nullptr;
  const PNode node = load_node(
      hit != nullptr ? static_cast<const void*>(hit)
                     : device().raw(offset, kNodeSize));
  if (hit != nullptr) {
    tm_.cache_hits->add();
    device().charge_cached_read(read_bytes(node));
    return node;
  }
  device().touch_read(offset, read_bytes(node));
  if (cache_.capacity() != 0) {
    tm_.cache_misses->add();
    if (cache_.insert(offset, node, epoch_)) tm_.cache_evictions->add();
  }
  return node;
}

void PmOctree::nv_store(std::uint64_t offset, const PNode& node) {
  // The dirty-subtree summary bit is DRAM-only bookkeeping: strip it from
  // every byte that reaches the device so the persisted image is a pure
  // function of tree content, independent of mutation history.
  PNode clean = node;
  clean.flags &= ~kNodeSubtreeDirty;
  device().store<PNode>(offset, clean);
  cache_.update(offset, clean, epoch_);
}

void PmOctree::nv_store_partial(std::uint64_t offset, std::size_t field_off,
                                std::size_t len, const PNode& full) {
  PNode clean = full;
  clean.flags &= ~kNodeSubtreeDirty;
  device().write(offset + field_off,
                 reinterpret_cast<const std::byte*>(&clean) + field_off, len);
  cache_.update(offset, clean, epoch_);
}

void PmOctree::nv_free(std::uint64_t offset) {
  if (cache_.invalidate(offset)) tm_.cache_invalidations->add();
  heap_.free(offset);
}

void PmOctree::write_node(NodeRef ref, const PNode& node) {
  PMO_DCHECK(!ref.null());
  touch_heat(node.code(), 1.0);
  if (ref.in_dram()) {
    charge_dram_write(kNodeSize);
    *ref.dram_ptr() = node;
    return;
  }
  nv_store(ref.nvbm_offset(), node);
}

void PmOctree::write_back_data(PathEntry& e) {
  touch_heat(e.node.code(), 1.0);
  // Only data/flags/epoch changed: the link line in either tier already
  // holds these links (the node was either stored whole at its CoW
  // allocation or was private with the same links).
  if (e.ref.in_dram()) {
    charge_dram_write(kPayloadBytes);
    std::memcpy(static_cast<void*>(e.ref.dram_ptr()), &e.node, kPayloadBytes);
    return;
  }
  nv_store_partial(e.ref.nvbm_offset(), 0, kPayloadBytes, e.node);
}

void PmOctree::write_back_links(NodeRef ref, const PNode& node) {
  touch_heat(node.code(), 1.0);
  if (ref.in_dram()) {
    charge_dram_write(sizeof(node.child));
    std::memcpy(ref.dram_ptr()->child, node.child, sizeof(node.child));
    return;
  }
  nv_store_partial(ref.nvbm_offset(), offsetof(PNode, child),
                   sizeof(node.child), node);
}

void PmOctree::write_back_children(NodeRef ref, const PNode& node) {
  touch_heat(node.code(), 1.0);
  // The child-presence mask lives in the flags word: store it with the
  // links so the durable mask tracks null<->non-null slot transitions.
  if (ref.in_dram()) {
    charge_dram_write(sizeof(node.child) + sizeof(node.flags));
    std::memcpy(ref.dram_ptr()->child, node.child, sizeof(node.child));
    ref.dram_ptr()->flags = node.flags;
    return;
  }
  nv_store_partial(ref.nvbm_offset(), offsetof(PNode, child),
                   sizeof(node.child), node);
  nv_store_partial(ref.nvbm_offset(), offsetof(PNode, flags),
                   sizeof(node.flags), node);
}

NodeRef PmOctree::alloc_node(const PNode& proto, bool prefer_dram) {
  note_depth(proto.code().level());
  // Hard cap at the overflow ceiling; the placement policies already
  // enforce the tighter budget/designation rules.
  const auto ceiling = static_cast<std::size_t>(
      static_cast<double>(config_.dram_budget_bytes) * kDramOverflow);
  if (prefer_dram && dram_bytes() < ceiling) {
    PNode* slot = take_dram_slot();
    *slot = proto;
    charge_dram_write(kNodeSize);
    c0_set_.insert(subtree_id(proto.code()));
    return NodeRef::dram(slot);
  }
  const std::uint64_t off = heap_.alloc();
  const NodeRef ref = NodeRef::nvbm(off);
  nv_store(off, proto);
  return ref;
}

PNode* PmOctree::take_dram_slot() {
  ++dram_node_count_;
  if (dram_free_.empty()) return &dram_pool_.emplace_back().node;
  PNode* slot = dram_free_.back();
  dram_free_.pop_back();
  return slot;
}

void PmOctree::free_node(NodeRef ref) {
  PMO_DCHECK(!ref.null());
  if (ref.in_dram()) {
    if (const auto it = twins_.find(ref.dram_ptr()); it != twins_.end()) {
      retire(it->second, 0);
      twins_.erase(it);
    }
    dram_free_.push_back(ref.dram_ptr());
    --dram_node_count_;
    return;
  }
  nv_free(ref.nvbm_offset());
}

// ---------------------------------------------------------------------------
// placement
// ---------------------------------------------------------------------------

int PmOctree::subtree_level() const noexcept {
  // Paper Eq. 1: L_sub = Depth_octree - floor(log_Fanout(Size_DRAM)).
  return std::clamp(depth_ - eq1_span_, 0, depth_);
}

LocCode PmOctree::subtree_id(const LocCode& code) const {
  const int level = std::min(code.level(), subtree_level());
  return code.ancestor_at(level);
}

bool PmOctree::place_new(const LocCode& code) const {
  if (config_.dram_budget_bytes == 0) return false;
  if (place_cow(code)) return true;
  // First-touch: any octant may claim free DRAM. Without the dynamic
  // transformation this is exactly the "locality-oblivious" behaviour of
  // Fig. 5a — DRAM fills with whatever was touched first and nothing
  // re-lays it out when the access pattern moves.
  return dram_bytes() < config_.dram_budget_bytes;
}

bool PmOctree::place_cow(const LocCode& code) const {
  if (config_.dram_budget_bytes == 0) return false;
  // Subtrees the transformation designated hot may transiently overflow
  // the budget; enforce_dram_budget() trims back to it afterwards.
  if (c0_set_.count(subtree_id(code)) == 0) return false;
  return dram_bytes() <
         static_cast<std::size_t>(static_cast<double>(
             config_.dram_budget_bytes) * kDramOverflow);
}

// ---------------------------------------------------------------------------
// structural helpers
// ---------------------------------------------------------------------------

bool PmOctree::descend(const LocCode& code, Path& path) {
  path.clear();
  PMO_CHECK_MSG(!cur_root_.null(), "tree has been destroyed");
  path.push_back({cur_root_, read_node(cur_root_)});
  for (int level = 1; level <= code.level(); ++level) {
    const NodeRef child =
        path.back().node.child_ref(code.ancestor_at(level).child_index());
    if (child.null()) return false;
    path.push_back({child, read_node(child)});
  }
  return true;
}

void PmOctree::mark_dirty_path(Path& path, std::size_t i) {
  // Stamp the summary bit on every DRAM ancestor of the mutation (NVBM
  // entries are skipped: a shared NVBM ancestor is CoW-copied to the
  // current epoch before any descendant mutation lands, and epoch ==
  // current already forces a merge visit). Both the live node and the
  // path's cached copy are stamped so later write-backs of the cached
  // copy cannot clear the live bit.
  for (std::size_t k = 0; k <= i; ++k) {
    if (!path[k].ref.in_dram()) continue;
    path[k].ref.dram_ptr()->flags |= kNodeSubtreeDirty;
    path[k].node.flags |= kNodeSubtreeDirty;
  }
}

NodeRef PmOctree::make_mutable(Path& path, std::size_t i) {
  mark_dirty_path(path, i);
  NodeRef ref = path[i].ref;
  if (ref.in_dram()) {
    // DRAM nodes are never referenced by V_{i-1} directly (only their
    // NVBM twins are), so they mutate in place — but the first mutation
    // of an epoch must stamp the node dirty so the next persist writes a
    // fresh twin instead of reusing the shared one.
    if (path[i].node.epoch != epoch_) {
      path[i].node.epoch = epoch_;
      ref.dram_ptr()->epoch = epoch_;
    }
    return ref;
  }
  if (path[i].node.epoch == epoch_) return ref;  // private NVBM node

  // Copy-on-write (Fig. 4): copy this shared octant, then recursively make
  // the parent mutable and relink. The shared original stays untouched for
  // V_{i-1}.
  tm_.cow_copies->add();
  telemetry::trace::instant("pmoctree.cow_copy", "pmoctree",
                            {{"depth", static_cast<double>(i)}});
  retire(ref.nvbm_offset(), path[i].node.epoch);
  if (i > 0) make_mutable(path, i - 1);

  PNode copy = path[i].node;
  copy.epoch = epoch_;
  const LocCode code = copy.code();
  const NodeRef nref = alloc_node(copy, place_new(code));

  if (i == 0) {
    cur_root_ = nref;
  } else {
    auto& parent = path[i - 1];
    parent.node.set_child(code.child_index(), nref);
    write_back_links(parent.ref, parent.node);
  }
  path[i].ref = nref;
  path[i].node = copy;
  return nref;
}

// ---------------------------------------------------------------------------
// queries / traversal
// ---------------------------------------------------------------------------

std::optional<CellData> PmOctree::find(const LocCode& code) {
  Path path;
  if (!descend(code, path)) return std::nullopt;
  return path.back().node.data;
}

bool PmOctree::contains(const LocCode& code) {
  Path path;
  return descend(code, path);
}

bool PmOctree::is_leaf(const LocCode& code) {
  Path path;
  if (!descend(code, path)) return false;
  return path.back().node.is_leaf();
}

CellData PmOctree::sample(const LocCode& code) {
  Path path;
  descend(code, path);
  return path.back().node.data;
}

LocCode PmOctree::leaf_containing(const LocCode& code) {
  Path path;
  descend(code, path);
  return path.back().node.code();
}

void PmOctree::for_each_node(
    const std::function<void(const LocCode&, const CellData&, bool)>& fn) {
  if (cur_root_.null()) return;
  std::vector<NodeRef> stack{cur_root_};
  while (!stack.empty()) {
    const NodeRef ref = stack.back();
    stack.pop_back();
    const PNode node = read_node(ref);
    fn(node.code(), node.data, node.is_leaf());
    for (int i = kChildrenPerNode - 1; i >= 0; --i) {
      if (node.has_child(i)) stack.push_back(node.child_ref(i));
    }
  }
}

void PmOctree::for_each_node_ex(
    const std::function<void(const LocCode&, const CellData&, bool, bool)>&
        fn) {
  if (cur_root_.null()) return;
  std::vector<NodeRef> stack{cur_root_};
  while (!stack.empty()) {
    const NodeRef ref = stack.back();
    stack.pop_back();
    const PNode node = read_node(ref);
    fn(node.code(), node.data, node.is_leaf(), ref.in_dram());
    for (int i = kChildrenPerNode - 1; i >= 0; --i) {
      if (node.has_child(i)) stack.push_back(node.child_ref(i));
    }
  }
}

void PmOctree::for_each_leaf(
    const std::function<void(const LocCode&, const CellData&)>& fn) {
  for_each_node([&](const LocCode& code, const CellData& data, bool leaf) {
    if (leaf) fn(code, data);
  });
}

void PmOctree::extract_leaves_soa(std::vector<std::uint64_t>& keys,
                                  std::vector<std::uint8_t>& levels,
                                  std::vector<double>& vof,
                                  std::vector<double>& tracer) {
  if (cur_root_.null()) return;
  std::vector<NodeRef> stack{cur_root_};
  while (!stack.empty()) {
    const NodeRef ref = stack.back();
    stack.pop_back();
    const PNode node = read_node(ref);
    if (node.is_leaf()) {
      keys.push_back(node.code().key());
      levels.push_back(static_cast<std::uint8_t>(node.code().level()));
      vof.push_back(node.data.vof);
      tracer.push_back(node.data.tracer);
      continue;
    }
    for (int i = kChildrenPerNode - 1; i >= 0; --i) {
      if (node.has_child(i)) stack.push_back(node.child_ref(i));
    }
  }
}

void PmOctree::for_each_leaf_from(
    NodeRef root,
    const std::function<void(const LocCode&, const CellData&)>& fn) {
  if (root.null()) return;
  std::vector<NodeRef> stack{root};
  while (!stack.empty()) {
    const NodeRef ref = stack.back();
    stack.pop_back();
    const PNode node = read_node(ref);
    if (node.is_leaf()) fn(node.code(), node.data);
    for (int i = kChildrenPerNode - 1; i >= 0; --i) {
      if (node.has_child(i)) stack.push_back(node.child_ref(i));
    }
  }
}

void PmOctree::for_each_leaf_prev(
    const std::function<void(const LocCode&, const CellData&)>& fn) {
  for_each_leaf_from(prev_root_, fn);
}

void PmOctree::for_each_leaf_snapshot(
    const SnapshotHandle& snap,
    const std::function<void(const LocCode&, const CellData&)>& fn) {
  PMO_CHECK_MSG(snap.valid(),
                "for_each_leaf_snapshot: released or empty handle");
  for_each_leaf_from(NodeRef::nvbm(snap.root_offset()), fn);
}

void PmOctree::for_each_leaf_mut(
    const std::function<bool(const LocCode&, CellData&)>& fn) {
  for_each_leaf_mut_pruned([](const LocCode&) { return true; }, fn);
}

void PmOctree::for_each_leaf_mut_pruned(
    const std::function<bool(const LocCode&)>& visit,
    const std::function<bool(const LocCode&, CellData&)>& fn) {
  // DFS carrying the full path so copy-on-write write-backs can relink
  // ancestors without a fresh descent per leaf.
  Path path;
  path.push_back({cur_root_, read_node(cur_root_)});
  // Per-depth next-child cursor.
  std::vector<int> cursor{0};
  while (!path.empty()) {
    const std::size_t i = path.size() - 1;
    if (path[i].node.is_leaf()) {
      CellData d = path[i].node.data;
      if (fn(path[i].node.code(), d)) {
        make_mutable(path, i);
        path[i].node.data = d;
        write_back_data(path[i]);
      }
      path.pop_back();
      cursor.pop_back();
      continue;
    }
    int& c = cursor[i];
    // Re-read the child ref from the (possibly CoW-updated) cached node.
    // Subtrees pruned by `visit` are skipped before their root is even
    // read — the child's code is derivable from the parent's.
    NodeRef child;
    while (c < kChildrenPerNode) {
      const int idx = c;
      ++c;
      if (!path[i].node.has_child(idx)) continue;
      if (!visit(path[i].node.code().child(idx))) continue;
      child = path[i].node.child_ref(idx);
      break;
    }
    if (child.null()) {
      path.pop_back();
      cursor.pop_back();
      continue;
    }
    path.push_back({child, read_node(child)});
    cursor.push_back(0);
  }
}

std::size_t PmOctree::node_count() {
  std::size_t n = 0;
  for_each_node([&](const LocCode&, const CellData&, bool) { ++n; });
  return n;
}

std::size_t PmOctree::leaf_count() {
  std::size_t n = 0;
  for_each_leaf([&](const LocCode&, const CellData&) { ++n; });
  return n;
}

// ---------------------------------------------------------------------------
// mutation
// ---------------------------------------------------------------------------

void PmOctree::insert(const LocCode& code, const CellData& data) {
  Path path;
  const bool exists = descend(code, path);
  if (exists) {
    make_mutable(path, path.size() - 1);
    path.back().node.data = data;
    write_back_data(path.back());
    return;
  }
  // Create full sibling groups level by level under the deepest ancestor
  // (octree invariant: a node has zero or eight children).
  ++topology_version_;  // new octants change the leaf set
  while (path.back().node.code().level() < code.level()) {
    const std::size_t pi = path.size() - 1;
    make_mutable(path, pi);
    PNode parent = path[pi].node;
    const LocCode pcode = parent.code();
    const int take = code.ancestor_at(pcode.level() + 1).child_index();
    NodeRef take_ref;
    PNode take_node{};
    for (int ci = 0; ci < kChildrenPerNode; ++ci) {
      PNode child{};
      const LocCode ccode = pcode.child(ci);
      child.set_code(ccode);
      child.data = parent.data;  // inherit
      child.epoch = epoch_;
      const NodeRef cref = alloc_node(child, place_new(ccode));
      parent.set_child(ci, cref);
      if (ci == take) {
        take_ref = cref;
        take_node = child;
      }
    }
    write_back_children(path[pi].ref, parent);
    path[pi].node = parent;
    logical_nodes_ += kChildrenPerNode;
    path.push_back({take_ref, take_node});
  }
  path.back().node.data = data;
  write_back_data(path.back());
  note_depth(code.level());
  enforce_dram_budget();
}

void PmOctree::update(const LocCode& code, const CellData& data) {
  Path path;
  PMO_CHECK_MSG(descend(code, path),
                "update of nonexistent octant " << code.to_string());
  make_mutable(path, path.size() - 1);
  path.back().node.data = data;
  write_back_data(path.back());
}

std::size_t PmOctree::free_subtree(NodeRef ref) {
  if (ref.null()) return 0;
  const PNode node = ref.in_dram() ? load_node(ref.dram_ptr())
                                   : nv_load(ref.nvbm_offset());
  // Shared with V_{i-1}: may not be freed or written. Retire it; a persist
  // frees it once no pinned version can reach it (§3.2, Deletion), and
  // nothing marks the sealed bytes meanwhile.
  const bool shared = ref.in_nvbm() && node.epoch != epoch_;
  if (shared) retire(ref.nvbm_offset(), node.epoch);
  std::size_t n = 1;
  for (int i = 0; i < kChildrenPerNode; ++i) {
    if (node.has_child(i)) n += free_subtree(node.child_ref(i));
  }
  if (!shared) free_node(ref);
  return n;
}

void PmOctree::remove(const LocCode& code) {
  PMO_CHECK_MSG(code.level() > 0, "cannot remove the root octant");
  Path path;
  PMO_CHECK_MSG(descend(code, path),
                "remove of nonexistent octant " << code.to_string());
  const NodeRef doomed = path.back().ref;
  const std::size_t pi = path.size() - 2;
  make_mutable(path, pi);
  path[pi].node.set_child(code.child_index(), NodeRef{});
  write_back_children(path[pi].ref, path[pi].node);
  logical_nodes_ -= free_subtree(doomed);
  ++topology_version_;
}

void PmOctree::refine(
    const LocCode& leaf,
    const std::function<void(const LocCode&, CellData&)>& init) {
  Path path;
  PMO_CHECK_MSG(descend(leaf, path),
                "refine of nonexistent octant " << leaf.to_string());
  PMO_CHECK_MSG(path.back().node.is_leaf(), "refine requires a leaf");
  PMO_CHECK_MSG(leaf.level() < kMaxLevel, "cannot refine beyond kMaxLevel");
  const std::size_t li = path.size() - 1;
  make_mutable(path, li);
  PNode parent = path[li].node;
  for (int ci = 0; ci < kChildrenPerNode; ++ci) {
    PNode child{};
    const LocCode ccode = leaf.child(ci);
    child.set_code(ccode);
    child.data = parent.data;
    child.epoch = epoch_;
    if (init) init(ccode, child.data);
    parent.set_child(ci, alloc_node(child, place_new(ccode)));
  }
  write_back_children(path[li].ref, parent);
  logical_nodes_ += kChildrenPerNode;
  note_depth(leaf.level() + 1);
  ++topology_version_;
}

void PmOctree::coarsen(const LocCode& parent_code) {
  Path path;
  PMO_CHECK_MSG(descend(parent_code, path),
                "coarsen of nonexistent octant " << parent_code.to_string());
  PMO_CHECK_MSG(!path.back().node.is_leaf(),
                "coarsen requires an internal octant");
  const std::size_t pi = path.size() - 1;
  make_mutable(path, pi);
  PNode parent = path[pi].node;
  CellData acc{};
  for (int ci = 0; ci < kChildrenPerNode; ++ci) {
    PMO_CHECK_MSG(parent.has_child(ci), "coarsen: missing child octant");
    const PNode child = read_node(parent.child_ref(ci));
    acc.vof += child.data.vof / kChildrenPerNode;
    acc.tracer += child.data.tracer / kChildrenPerNode;
    acc.u += child.data.u / kChildrenPerNode;
    acc.v += child.data.v / kChildrenPerNode;
    acc.w += child.data.w / kChildrenPerNode;
    acc.pressure += child.data.pressure / kChildrenPerNode;
  }
  for (int ci = 0; ci < kChildrenPerNode; ++ci) {
    logical_nodes_ -= free_subtree(parent.child_ref(ci));
    parent.set_child(ci, NodeRef{});
  }
  parent.data = acc;
  write_node(path[pi].ref, parent);
  ++topology_version_;
}

std::size_t PmOctree::refine_where(
    const std::function<bool(const LocCode&, const CellData&)>& pred,
    const std::function<void(const LocCode&, CellData&)>& init) {
  std::vector<LocCode> to_split;
  for_each_leaf([&](const LocCode& code, const CellData& data) {
    if (code.level() < kMaxLevel && pred(code, data))
      to_split.push_back(code);
  });
  for (const auto& code : to_split) refine(code, init);
  enforce_dram_budget();
  return to_split.size();
}

std::size_t PmOctree::coarsen_where(
    const std::function<bool(const LocCode&, const CellData&)>& pred) {
  // Find internal nodes whose children are all agreeing leaves.
  std::vector<LocCode> groups;
  std::vector<NodeRef> stack{cur_root_};
  while (!stack.empty()) {
    const NodeRef ref = stack.back();
    stack.pop_back();
    const PNode node = read_node(ref);
    if (node.is_leaf()) continue;
    bool all_leaf = true;
    bool all_agree = true;
    for (int i = 0; i < kChildrenPerNode; ++i) {
      if (!node.has_child(i)) {
        all_leaf = false;
        continue;
      }
      const NodeRef c = node.child_ref(i);
      const PNode child = read_node(c);
      if (!child.is_leaf()) {
        all_leaf = false;
        stack.push_back(c);  // keep scanning deeper groups
      } else {
        all_agree &= pred(child.code(), child.data);
      }
    }
    if (all_leaf && all_agree) groups.push_back(node.code());
  }
  for (const auto& g : groups) coarsen(g);
  return groups.size();
}

namespace {
// V_i's octants in DFS pre-order, which is (key, level) order.
struct Octants {
  std::vector<LocCode> codes;
  std::vector<std::uint8_t> leaf;
};

// One charged traversal: the same reads for_each_leaf makes.
void read_octants(PmOctree& tree, Octants& out) {
  out.codes.clear();
  out.leaf.clear();
  tree.for_each_node([&](const LocCode& code, const CellData&, bool leaf) {
    out.codes.push_back(code);
    out.leaf.push_back(leaf);
  });
}

// 2:1 balance as neighbor existence: a full octree is 2:1 balanced iff
// every in-domain same-size neighbor of every internal octant exists. A
// leaf two or more levels coarser than an adjacent leaf strictly contains
// a same-size neighbor of that leaf's parent; conversely, a leaf strictly
// containing a missing neighbor of an internal octant touches a leaf at
// least two levels finer inside it. The leaf containing a missing
// neighbor is its predecessor in (key, level) order and is the one to
// split. A missing neighbor that no leaf contains lies in a hole left by
// remove(); no split can fill it, so it is ignored.
//
// Appends to `to_split` the leaf containing each missing neighbor of the
// internal octant `p`; returns whether there was one.
bool find_coarse_neighbors(const Octants& octs, const LocCode& p,
                           std::vector<LocCode>& to_split) {
  const Anchor a = p.grid_anchor();  // one decode for all 26 neighbors
  const std::int64_t side = std::int64_t{1} << p.level();
  bool found = false;
  for (const auto& d : LocCode::neighbor_directions()) {
    const std::int64_t x = std::int64_t{a.x} + d[0];
    const std::int64_t y = std::int64_t{a.y} + d[1];
    const std::int64_t z = std::int64_t{a.z} + d[2];
    if (x < 0 || y < 0 || z < 0 || x >= side || y >= side || z >= side)
      continue;
    const LocCode n = LocCode::from_grid(
        p.level(), static_cast<std::uint32_t>(x),
        static_cast<std::uint32_t>(y), static_cast<std::uint32_t>(z));
    const auto it = std::lower_bound(octs.codes.begin(), octs.codes.end(), n);
    if (it != octs.codes.end() && *it == n) continue;
    // The root precedes every deeper code, so `it` has a predecessor.
    PMO_DCHECK(it != octs.codes.begin());
    const auto prev = static_cast<std::size_t>(it - octs.codes.begin()) - 1;
    if (!octs.leaf[prev] || !octs.codes[prev].contains(n)) continue;
    to_split.push_back(octs.codes[prev]);
    found = true;
  }
  return found;
}
}  // namespace

std::size_t PmOctree::balance() {
  // Ripple passes. Each pass reads the tree once (the modeled cost of a
  // pass) and splits one sorted batch of leaves. Refinement only adds
  // octants, so once pass 1 has checked every internal octant, only the
  // octants that still missed a neighbor and the leaves just split can
  // miss one; each later pass checks those alone.
  std::size_t total = 0;
  Octants octs;
  read_octants(*this, octs);
  std::vector<LocCode> worklist;
  for (std::size_t i = 0; i < octs.codes.size(); ++i) {
    if (!octs.leaf[i]) worklist.push_back(octs.codes[i]);
  }
  for (;;) {
    std::vector<LocCode> to_split;
    std::vector<LocCode> next;  // the flagged octants, then the leaves split
    for (const auto& p : worklist) {
      if (find_coarse_neighbors(octs, p, to_split)) next.push_back(p);
    }
    std::sort(to_split.begin(), to_split.end());
    to_split.erase(std::unique(to_split.begin(), to_split.end()),
                   to_split.end());
    const std::size_t flagged = next.size();
    for (const auto& code : to_split) {
      Path path;
      if (descend(code, path) && path.back().node.is_leaf()) {
        refine(code);
        next.push_back(code);
      }
    }
    if (next.size() == flagged) break;
    total += next.size() - flagged;
    worklist = std::move(next);
    read_octants(*this, octs);
  }
  enforce_dram_budget();
  return total;
}

bool PmOctree::is_balanced() {
  Octants octs;
  read_octants(*this, octs);
  std::vector<LocCode> to_split;
  for (std::size_t i = 0; i < octs.codes.size(); ++i) {
    if (!octs.leaf[i] && find_coarse_neighbors(octs, octs.codes[i], to_split))
      return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// merging / persistence
// ---------------------------------------------------------------------------

NodeRef PmOctree::nvbmify(NodeRef ref, std::size_t* moved) {
  if (ref.null()) return ref;
  if (ref.in_nvbm()) {
    PNode node = nv_load(ref.nvbm_offset());
    if (node.epoch != epoch_) return ref;  // shared subtree: all NVBM already
    bool changed = false;
    for (int i = 0; i < kChildrenPerNode; ++i) {
      if (!node.has_child(i)) continue;
      const NodeRef c = node.child_ref(i);
      const NodeRef nc = nvbmify(c, moved);
      if (!(nc == c)) {
        node.set_child(i, nc);
        changed = true;
      }
    }
    if (changed) write_back_links(ref, node);
    return ref;
  }
  // DRAM node: convert children first, then move the node itself out.
  PNode node = load_node(ref.dram_ptr());
  charge_dram_read(read_bytes(node));
  const bool clean = node.epoch != epoch_;
  for (int i = 0; i < kChildrenPerNode; ++i) {
    if (node.has_child(i))
      node.set_child(i, nvbmify(node.child_ref(i), moved));
  }
  // A clean octant whose children land exactly on its durable twin's
  // recorded children can be evicted by *linking the twin* — no new NVBM
  // object, no write (the common case when a cold C0 subtree is merged
  // out unchanged).
  if (const auto it = twins_.find(ref.dram_ptr());
      clean && it != twins_.end()) {
    const std::uint64_t twin_off = it->second;
    const PNode twin = nv_load(twin_off);
    bool match = true;
    for (int i = 0; i < kChildrenPerNode; ++i)
      match &= twin.child[i] == node.child[i];
    if (match) {
      tm_.twin_reuse->add();
      twins_.erase(it);  // the twin rejoins the tree: nothing to retire
      free_node(ref);
      ++(*moved);
      return NodeRef::nvbm(twin_off);
    }
  }
  const std::uint64_t off = heap_.alloc();
  nv_store(off, node);
  free_node(ref);
  ++(*moved);
  return NodeRef::nvbm(off);
}

void PmOctree::census_add(SampleCensus& census, const LocCode& code,
                          const CellData& data, bool in_dram) {
  const int lsub = subtree_level();
  if (code.level() < lsub) return;
  auto& b = census[code.ancestor_at(lsub)];
  ++b.size;
  if (in_dram) ++b.dram;
  if (b.sample.size() < kNSample) {
    b.sample.emplace_back(code, data);
  } else {
    const auto j = rng_.below(b.size);
    if (j < kNSample)
      b.sample[static_cast<std::size_t>(j)] = {code, data};
  }
}

PmOctree::MergeResult PmOctree::persist_subtree(NodeRef ref,
                                                PersistStats& stats,
                                                std::size_t& changed) {
  if (ref.null()) return {ref, ref, false};
  if (ref.in_nvbm()) {
    ++stats.visits;
    // Merge reads bypass the node cache: one charged device load each. A
    // shared octant is told by the epoch in its payload line, so it is
    // charged that line alone.
    const std::uint64_t off = ref.nvbm_offset();
    const std::byte* image = device().raw(off, kNodeSize);
    std::uint32_t born;
    std::memcpy(&born, image + offsetof(PNode, epoch), sizeof(born));
    if (born != epoch_) {
      // Shared with V_{i-1}. Invariant: a shared NVBM node never has DRAM
      // descendants (established by the split below at the persist that
      // made it shared, and structural changes CoW it private).
      device().touch_read(off, kPayloadBytes);
      return {ref, ref, false};
    }
    PNode node = load_node(image);
    device().touch_read(off, read_bytes(node));
    // Private NVBM node: persist the children first.
    ++changed;
    MergeResult child_res[kChildrenPerNode];
    bool have_dram_child = false;
    for (int i = 0; i < kChildrenPerNode; ++i) {
      if (!node.has_child(i)) continue;
      child_res[i] = persist_subtree(node.child_ref(i), stats, changed);
      if (child_res[i].wref.in_dram()) have_dram_child = true;
    }
    if (!have_dram_child) {
      // Whole subtree NVBM: this node serves both versions in place. The
      // relink keeps the mask, so it stores the link line alone.
      bool relink = false;
      for (int i = 0; i < kChildrenPerNode; ++i) {
        if (!(child_res[i].pref == node.child_ref(i))) {
          node.set_child(i, child_res[i].pref);
          relink = true;
        }
      }
      if (relink) {
        nv_store_partial(off, offsetof(PNode, child), sizeof(node.child),
                         node);
      }
      return {ref, ref, true};  // created this epoch: new vs V_{i-1}
    }
    // This node sits above DRAM children: split it into a DRAM working
    // copy (joining C0, which keeps the no-NVBM-above-DRAM invariant)
    // plus an NVBM twin for the persistent version.
    PNode twin = node;
    PNode working = node;
    for (int i = 0; i < kChildrenPerNode; ++i) {
      twin.set_child(i, child_res[i].pref);
      working.set_child(i, child_res[i].wref);
    }
    const std::uint64_t twin_off = heap_.alloc();
    nv_store(twin_off, twin);
    PNode* slot = take_dram_slot();
    *slot = working;
    charge_dram_write(kNodeSize);
    twins_[slot] = twin_off;
    nv_free(off);
    ++stats.merged_from_dram;
    return {NodeRef::dram(slot), NodeRef::nvbm(twin_off), true};
  }

  // DRAM node.
  PNode* ptr = ref.dram_ptr();
  const bool clean =
      ptr->epoch != epoch_ && (ptr->flags & kNodeSubtreeDirty) == 0;
  if (clean) {
    // Entirely-clean subtree: nothing under it mutated since its durable
    // twin was recorded, so the twin already IS its persisted image —
    // skip the subtree in O(1), on its payload line alone. A skip is not
    // a visit: `visits` counts octants the merge processes,
    // `pruned_subtrees` counts the skips.
    if (const auto it = twins_.find(ptr); it != twins_.end()) {
      charge_dram_read(kPayloadBytes);
      ++stats.pruned_subtrees;
      return {ref, NodeRef::nvbm(it->second), false};
    }
  }
  ++stats.visits;
  // Persist the children first, then decide whether the twin from the
  // previous persist can be reused.
  const bool dirty = ptr->epoch == epoch_;
  PNode twin_content = load_node(ptr);
  charge_dram_read(read_bytes(twin_content));
  bool child_changed = false;
  bool working_relink = false;
  for (int i = 0; i < kChildrenPerNode; ++i) {
    if (!twin_content.has_child(i)) continue;
    const NodeRef c = twin_content.child_ref(i);
    const auto sub = persist_subtree(c, stats, changed);
    twin_content.set_child(i, sub.pref);
    child_changed |= sub.changed;
    if (!(sub.wref == c)) {
      ptr->set_child(i, sub.wref);
      working_relink = true;
    }
  }
  // A relink keeps the mask: the link line alone.
  if (working_relink) charge_dram_write(sizeof(ptr->child));
  // Visited: the summary bit has served its purpose for this epoch.
  ptr->flags &= ~kNodeSubtreeDirty;
  const auto twin = twins_.find(ptr);
  if (!dirty && !child_changed && twin != twins_.end()) {
    tm_.twin_reuse->add();
    return {ref, NodeRef::nvbm(twin->second), false};  // reuse
  }
  // Write a fresh durable twin; the old one (if any) still belongs to
  // V_{i-1}, so it is retired.
  twin_content.epoch = epoch_;
  const std::uint64_t off = heap_.alloc();
  nv_store(off, twin_content);
  if (twin != twins_.end()) retire(twin->second, 0);
  twins_[ptr] = off;
  ++stats.merged_from_dram;
  ++changed;
  return {ref, NodeRef::nvbm(off), true};
}

void PmOctree::collect_census(NodeRef root, SampleCensus& census) {
  // Advisory feature-sampling walk, run after the merge. Decoupled from
  // the merge — a pruned merge never sees clean subtrees, so a census
  // taken there would sample only the dirty fringe and steer the layout
  // transformation by it. Deliberately charge-free: the paper folds sampling into the merge at zero marginal
  // cost, and the walk must not re-inflate the counters pruning saved.
  if (root.null()) return;
  std::vector<NodeRef> stack{root};
  while (!stack.empty()) {
    const NodeRef ref = stack.back();
    stack.pop_back();
    const PNode node =
        load_node(ref.in_dram() ? static_cast<const void*>(ref.dram_ptr())
                                : device().raw(ref.nvbm_offset(), kNodeSize));
    census_add(census, node.code(), node.data, ref.in_dram());
    for (int i = 0; i < kChildrenPerNode; ++i) {
      if (node.has_child(i)) stack.push_back(node.child_ref(i));
    }
  }
}

PersistStats PmOctree::persist() {
  telemetry::Span span("pmoctree.persist");
  PersistStats stats;

  // 1. Merge: give every octant of V_i an NVBM representative. Changed
  //    octants (and octants whose subtree changed) get fresh storage;
  //    everything else is shared with V_{i-1}. The DRAM working copies
  //    (C0) stay in place. With dirty-subtree pruning the merge touches
  //    only the dirty fringe, so the octant total comes from the
  //    incrementally maintained logical count, not from the walk.
  stats.nodes_total = logical_nodes_;
  std::size_t changed = 0;
  MergeResult res;
  {
    telemetry::Span merge_span("merge");  // pmoctree.persist.merge
    res = persist_subtree(cur_root_, stats, changed);
  }
  const NodeRef new_prev = res.pref;
  cur_root_ = res.wref;  // NVBM-above-DRAM nodes may have joined C0
  PMO_CHECK(new_prev.in_nvbm());
  stats.nodes_shared =
      stats.nodes_total - std::min(changed, stats.nodes_total);
  stats.overlap_ratio =
      stats.nodes_total == 0
          ? 0.0
          : static_cast<double>(stats.nodes_shared) /
                static_cast<double>(stats.nodes_total);
  stats.delta_bytes = changed * kNodeSize;

  // Crash-injection hook: die here, with the merge's writes unflushed and
  // the durable root still pointing at V_{i-1}.
  if (crash_for_test_ == CrashPoint::kBeforeFlush) return stats;

  // 2. Make everything durable, then atomically swing the persistent root.
  //    This 8-byte update is the only ordering-critical write (§1).
  device().flush_all();
  device().persist_barrier();
  // The node-count slot is advisory (restore() only reads it for the
  // telemetry baseline), so it goes first: a crash between the slot
  // stores can misreport a statistic but never corrupt the tree. The
  // epoch goes before the root: a crash between those two leaves a newer
  // epoch over the older root, which restore() treats as shared from
  // top to bottom (extra copy-on-write at worst). The other order would
  // restore the new root under its own octants' epoch, and the first
  // update would write the sealed version in place.
  heap_.set_root(kNodeCountSlot, logical_nodes_);
  heap_.set_root(kEpochSlot, epoch_);
  if (crash_for_test_ == CrashPoint::kBeforeRootSwap) return stats;
  heap_.set_root(kPrevRootSlot, new_prev.nvbm_offset());
  telemetry::trace::instant(
      "pmoctree.version_swap", "pmoctree",
      {{"epoch", static_cast<double>(epoch_)},
       {"delta_bytes", static_cast<double>(stats.delta_bytes)},
       {"nodes_shared", static_cast<double>(stats.nodes_shared)},
       {"visits", static_cast<double>(stats.visits)},
       {"pruned_subtrees", static_cast<double>(stats.pruned_subtrees)}});

  prev_root_ = new_prev;
  ++epoch_;
  // The sealed version is durable: publish it to the pin registry so
  // readers can pin it from any thread.
  registry_->publish(new_prev.nvbm_offset(), epoch_ - 1, logical_nodes_);
  // Every cached node now belongs to the just-sealed epoch and is still
  // byte-correct (the cache is write-through and frees invalidate their
  // offsets eagerly), so carry the whole cache across the bump instead of
  // letting the epoch stamp expire it wholesale.
  cache_.restamp(epoch_ - 1, epoch_);

  // 3. Free what the superseded versions alone held (never *during* the
  //    merge): the retire list, or the full collector after a restore.
  {
    telemetry::Span gc_span("gc");  // pmoctree.persist.gc
    stats.gc_freed = recovery_gc_due_ ? gc() : reclaim_retired();
  }

  // 4. Decay heat and re-layout hot subtrees (the paper triggers dynamic
  //    transformation only after merging completes).
  for (auto& [id, h] : heat_) h *= 0.5;
  if (config_.enable_transform && !features_.empty()) {
    telemetry::Span tr_span("transform");  // pmoctree.persist.transform
    maybe_transform();
  }
  // C0 may overflow its budget only between merge points: trim it back
  // now. Every DRAM octant is clean with a matching twin after the merge,
  // so an eviction that reaches one links the twin instead of writing a
  // copy.
  enforce_dram_budget();

#ifndef NDEBUG
  check_twins();
#endif
  tm_.persists->add();
  tm_.merged_from_dram->add(stats.merged_from_dram);
  tm_.persist_visits->add(stats.visits);
  tm_.persist_pruned->add(stats.pruned_subtrees);
  telemetry::trace::instant(
      "pmoctree.cache", "pmoctree",
      {{"hits", static_cast<double>(cache_.stats().hits)},
       {"misses", static_cast<double>(cache_.stats().misses)},
       {"evictions", static_cast<double>(cache_.stats().evictions)},
       {"invalidations", static_cast<double>(cache_.stats().invalidations)}});
  // Library sampling point: a persist is the natural epoch boundary for
  // metric time-series (driver-thread gated; no-op without a sampler).
  telemetry::timeseries::tick_point();
  return stats;
}

void PmOctree::check_twins() const {
  std::unordered_set<std::uint64_t> offsets;
  for (const auto& [slot, off] : twins_) {
    PMO_CHECK_MSG(offsets.insert(off).second,
                  "two C0 octants share twin offset " << off);
    PMO_CHECK_MSG(heap_.is_allocated(off),
                  "twin offset " << off << " is not an allocated slot");
  }
}

void PmOctree::collect_reachable_nvbm(
    NodeRef root, std::unordered_set<std::uint64_t>& out) {
  if (root.null()) return;
  std::vector<NodeRef> stack{root};
  while (!stack.empty()) {
    const NodeRef ref = stack.back();
    stack.pop_back();
    if (ref.in_nvbm() && !out.insert(ref.nvbm_offset()).second) continue;
    const PNode node = ref.in_dram() ? load_node(ref.dram_ptr())
                                     : nv_load(ref.nvbm_offset());
    for (int i = 0; i < kChildrenPerNode; ++i) {
      if (node.has_child(i)) stack.push_back(node.child_ref(i));
    }
  }
}

std::size_t PmOctree::gc() {
  std::unordered_set<std::uint64_t> live;
  collect_reachable_nvbm(prev_root_, live);
  collect_reachable_nvbm(cur_root_, live);
  // Epoch-based reclamation: every version a reader still pins stays
  // fully live. Whatever survives *only* because of a pin is the
  // deferred-reclamation set (the serve bench's high-water metric).
  const auto pinned = registry_->pinned_roots();
  if (!pinned.empty()) {
    const std::size_t base = live.size();
    for (const auto& [epoch, root] : pinned) {
      (void)epoch;
      collect_reachable_nvbm(NodeRef::nvbm(root), live);
    }
    deferred_nodes_ = live.size() - base;
  } else {
    deferred_nodes_ = 0;
  }
  if (deferred_nodes_ > deferred_hwm_) deferred_hwm_ = deferred_nodes_;
  recovery_gc_due_ = false;
  // The sweep frees offsets behind the node accessor's back and the heap
  // may hand them out again within this epoch — invalidate exactly the
  // swept offsets so the surviving working set keeps its hit rate across
  // the persist (the cache is restamped, not cleared, at epoch bumps).
  std::size_t invalidated = 0;
  const std::size_t freed = heap_.sweep([&](std::uint64_t off) {
    const bool is_live = live.count(off) != 0;
    if (!is_live && cache_.invalidate(off)) ++invalidated;
    return is_live;
  });
  // Retired offsets the sweep kept are held by a pin: they stay listed,
  // under their tags, for the persist that outlives the pin.
  std::erase_if(retired_, [&](const Retired& r) {
    return live.count(r.offset) == 0;
  });
  note_reclaimed(freed, invalidated);
  return freed;
}

std::size_t PmOctree::reclaim_retired() {
  // A retired octant belongs to the sealed versions [born, sealed] only,
  // so it is garbage unless a pinned epoch falls in that range. That is
  // the pin-only set a full gc() keeps, except that an eviction copy
  // stamped with an older epoch than its own may be kept longer.
  const auto pinned = registry_->pinned_roots();  // ascending by epoch
  const auto newest_pin_upto = [&](std::uint32_t e) -> std::uint32_t {
    const auto it = std::upper_bound(
        pinned.begin(), pinned.end(), e,
        [](std::uint32_t v, const auto& p) { return v < p.first; });
    return it == pinned.begin() ? 0 : std::prev(it)->first;
  };
  // A twin is retired unread. Its stamp matters only when a pin is older
  // than the tag: read it then (a charged load), once.
  if (!pinned.empty()) {
    for (Retired& r : retired_) {
      const std::uint32_t pin = newest_pin_upto(r.sealed);
      if (r.born == 0 && pin != 0 && pin < r.sealed) {
        r.born = device().load<std::uint32_t>(r.offset +
                                              offsetof(PNode, epoch));
      }
    }
  }
  const auto held = std::partition(
      retired_.begin(), retired_.end(), [&](const Retired& r) {
        const std::uint32_t pin = newest_pin_upto(r.sealed);
        return pin == 0 || pin < r.born;
      });
  // Ascending offsets, the order the heap sweep frees in, so the free
  // stack and every later allocation match a full gc() exactly.
  std::sort(retired_.begin(), held, [](const Retired& a, const Retired& b) {
    return a.offset < b.offset;
  });
  std::size_t invalidated = 0;
  for (auto it = retired_.begin(); it != held; ++it) {
    if (cache_.invalidate(it->offset)) ++invalidated;
    heap_.free(it->offset);
  }
  const auto freed = static_cast<std::size_t>(held - retired_.begin());
  retired_.erase(retired_.begin(), held);
  // An empty list (the usual case, with nothing pinned) gives its
  // capacity back, so peak memory follows the entries in flight.
  if (retired_.empty()) retired_.shrink_to_fit();
  deferred_nodes_ = retired_.size();
  if (deferred_nodes_ > deferred_hwm_) deferred_hwm_ = deferred_nodes_;
  note_reclaimed(freed, invalidated);
  return freed;
}

void PmOctree::note_reclaimed(std::size_t freed, std::size_t invalidated) {
  tm_.cache_invalidations->add(invalidated);
  tm_.gc_sweeps->add();
  tm_.gc_freed->add(freed);
  telemetry::trace::instant("pmoctree.gc", "pmoctree",
                            {{"freed", static_cast<double>(freed)}});
}

SnapshotHandle PmOctree::pin_snapshot() {
  SnapshotRegistry::Pinned pin;
  PMO_CHECK_MSG(registry_->pin_latest(pin),
                "pin_snapshot: no persisted version to pin (run persist() "
                "or restore() first)");
  return SnapshotHandle(registry_, &device(), pin);
}

void PmOctree::destroy() {
  PMO_CHECK_MSG(registry_->pin_count() == 0,
                "pm_delete with live snapshot pins — release every "
                "SnapshotHandle before destroying the tree");
  registry_->publish(0, 0, 0);
  retired_.clear();
  deferred_nodes_ = 0;
  tm_.cache_invalidations->add(cache_.clear());
  dram_pool_.clear();
  dram_free_.clear();
  twins_.clear();
  dram_node_count_ = 0;
  logical_nodes_ = 0;
  cur_root_ = NodeRef{};
  prev_root_ = NodeRef{};
  heap_.set_root(kPrevRootSlot, 0);
  heap_.set_root(kEpochSlot, 0);
  heap_.set_root(kNodeCountSlot, 0);
  heap_.sweep([](std::uint64_t) { return false; });
  c0_set_.clear();
  heat_.clear();
  heat_memo_ = nullptr;
}

// ---------------------------------------------------------------------------
// dynamic layout transformation (§3.3)
// ---------------------------------------------------------------------------

NodeRef PmOctree::dramify(NodeRef ref, std::size_t* moved,
                          std::size_t node_limit) {
  if (ref.null()) return ref;
  if (*moved >= node_limit) return ref;
  if (ref.in_dram()) {
    PNode node = load_node(ref.dram_ptr());
    charge_dram_read(read_bytes(node));
    bool changed = false;
    for (int i = 0; i < kChildrenPerNode; ++i) {
      if (!node.has_child(i)) continue;
      const NodeRef c = node.child_ref(i);
      const NodeRef nc = dramify(c, moved, node_limit);
      if (!(nc == c)) {
        node.set_child(i, nc);
        changed = true;
      }
    }
    if (changed) write_back_links(ref, node);
    return ref;
  }
  // NVBM node, pre-order: claim its C0 slot before any descendant's, so a
  // full C0 stops the walk above every copy (no orphaned child copies)
  // and a freed private original is never linked by an NVBM parent.
  if (dram_bytes() >= config_.dram_budget_bytes) return ref;
  PNode node = nv_load(ref.nvbm_offset());
  PNode* slot = take_dram_slot();
  if (node.epoch != epoch_) {
    // Shared: the original stays as V_{i-1}'s copy AND becomes the DRAM
    // node's durable twin: the octant is unchanged, only its residence
    // moved, so the next persist can keep sharing it.
    twins_[slot] = ref.nvbm_offset();
  } else {
    // Private original: the DRAM copy simply replaces it.
    nv_free(ref.nvbm_offset());
  }
  ++(*moved);
  for (int i = 0; i < kChildrenPerNode; ++i) {
    if (node.has_child(i))
      node.set_child(i, dramify(node.child_ref(i), moved, node_limit));
  }
  *slot = node;
  charge_dram_write(kNodeSize);
  return NodeRef::dram(slot);
}

TransformStats PmOctree::maybe_transform() {
  SampleCensus census;
  collect_census(cur_root_, census);
  return transform_with(census);
}

TransformStats PmOctree::transform_with(SampleCensus& buckets) {
  TransformStats out;
  if (features_.empty() || config_.dram_budget_bytes == 0) return out;
  if (subtree_level() <= 0) return out;  // the whole tree fits in C0
  out.subtrees_sampled = buckets.size();

  // Pre-execute the feature functions over each bucket's sample (§3.3
  // step 2-3): frequency = number of octants the application flags.
  auto frequency = [&](const SampleBucket& b) {
    std::size_t hits = 0;
    for (const auto& [code, data] : b.sample) {
      for (const auto& f : features_) {
        if (f(code, data)) {
          ++hits;
          break;
        }
      }
    }
    return hits;
  };

  // Rank every subtree by its sampled feature frequency.
  struct Ranked {
    LocCode id;
    std::size_t freq = 0;
    std::size_t size = 0;
    std::size_t dram = 0;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(buckets.size());
  for (auto& [id, b] : buckets) {
    out.octants_sampled += b.sample.size();
    ranked.push_back({id, frequency(b), b.size, b.dram});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Ranked& a, const Ranked& b) {
              if (a.freq != b.freq) return a.freq > b.freq;
              return a.dram > b.dram;  // prefer already-resident on ties
            });

  // Plan the desired C0: the hottest subtrees that fit the DRAM budget.
  const std::size_t capacity = config_.dram_budget_bytes / kNodeSize;
  std::unordered_set<LocCode, LocCodeHash> desired;
  std::size_t planned = 0;
  std::size_t pull_freq = 0;  // strongest pending pull (Freq^NVBM)
  for (const auto& r : ranked) {
    if (r.freq == 0) break;
    if (planned + r.size > capacity) continue;  // try smaller hot buckets
    desired.insert(r.id);
    planned += r.size;
    if (r.dram < r.size) pull_freq = std::max(pull_freq, r.freq);
  }
  if (desired.empty()) return out;

  // Evict resident subtrees outside the plan when Ratio_access (hottest
  // pending pull vs the resident subtree) exceeds T_transform (§3.3).
  for (auto it = ranked.rbegin(); it != ranked.rend(); ++it) {  // asc freq
    if (it->dram == 0 || desired.count(it->id) != 0) continue;
    const double ratio = (static_cast<double>(pull_freq) + 1.0) /
                         (static_cast<double>(it->freq) + 1.0);
    out.best_ratio = std::max(out.best_ratio, ratio);
    if (ratio <= kTTransform) continue;
    relocate(it->id, /*to_dram=*/false, &out.evicted_to_nvbm);
  }
  // Pull the planned hot subtrees into DRAM (hottest first) until the
  // budget is reached; dramify itself stops allocating at the budget, so
  // the last pull may be partial. Never overshoot: that would put every
  // subsequent mutation through the eviction machinery.
  for (const auto& r : ranked) {
    if (dram_bytes() >= config_.dram_budget_bytes) break;
    if (desired.count(r.id) == 0 || r.dram == r.size) continue;
    relocate(r.id, /*to_dram=*/true, &out.moved_to_dram);
  }
  out.transformed = out.moved_to_dram > 0 || out.evicted_to_nvbm > 0;
  if (out.transformed) tm_.transform_runs->add();
  tm_.transform_moved_to_dram->add(out.moved_to_dram);
  tm_.transform_evicted_to_nvbm->add(out.evicted_to_nvbm);
  if (out.transformed) {
    telemetry::trace::instant(
        "pmoctree.transform", "pmoctree",
        {{"moved_to_dram", static_cast<double>(out.moved_to_dram)},
         {"evicted_to_nvbm", static_cast<double>(out.evicted_to_nvbm)}});
  }
  return out;
}

void PmOctree::relocate(const LocCode& id, bool to_dram,
                        std::size_t* moved) {
  Path path;
  if (!descend(id, path)) return;
  const std::size_t i = path.size() - 1;
  if (i > 0) make_mutable(path, i - 1);
  const NodeRef nref =
      to_dram ? dramify(path[i].ref, moved,
                        config_.dram_budget_bytes / kNodeSize)
              : nvbmify(path[i].ref, moved);
  if (i == 0) {
    cur_root_ = nref;
  } else if (!(nref == path[i].ref)) {
    path[i - 1].node.set_child(id.child_index(), nref);
    write_back_links(path[i - 1].ref, path[i - 1].node);
  }
  if (to_dram) {
    c0_set_.insert(id);
  } else {
    c0_set_.erase(id);
  }
}

void PmOctree::enforce_dram_budget() {
  if (dram_bytes() <= config_.dram_budget_bytes) return;
  const int lsub = subtree_level();
  // Tally DRAM nodes per subtree id. `load` reads an NVBM octant; with
  // `prune` the walk reads a shared one for its epoch and stops there: a
  // shared NVBM octant never has DRAM descendants (see persist_subtree).
  using Tally = std::unordered_map<LocCode, std::size_t, LocCodeHash>;
  const auto tally = [&](const auto& load, bool prune) {
    Tally counts;
    std::vector<NodeRef> stack{cur_root_};
    while (!stack.empty()) {
      const NodeRef ref = stack.back();
      stack.pop_back();
      const PNode node = ref.in_dram() ? load_node(ref.dram_ptr())
                                       : load(ref.nvbm_offset());
      if (ref.in_dram()) {
        const LocCode code = node.code();
        if (code.level() >= lsub) ++counts[code.ancestor_at(lsub)];
      } else if (prune && node.epoch != epoch_) {
        continue;
      }
      for (int i = 0; i < kChildrenPerNode; ++i) {
        if (node.has_child(i)) stack.push_back(node.child_ref(i));
      }
    }
    return counts;
  };
  const Tally counts =
      tally([&](std::uint64_t off) { return nv_load(off); }, true);
  // Debug: the pruned tally equals an uncharged walk of the whole tree.
  PMO_DCHECK(counts == tally(
                           [&](std::uint64_t off) {
                             return load_node(device().raw(off, kNodeSize));
                           },
                           false));
  // Evict coldest first (the paper's least-frequently-accessed policy).
  std::vector<std::pair<double, LocCode>> order;
  order.reserve(counts.size());
  for (const auto& [id, n] : counts) {
    const auto it = heat_.find(id);
    order.emplace_back(it == heat_.end() ? 0.0 : it->second, id);
  }
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [h, id] : order) {
    if (dram_bytes() <= config_.dram_budget_bytes) break;
    std::size_t moved = 0;
    relocate(id, /*to_dram=*/false, &moved);
    if (moved > 0) {
      ++eviction_merges_;
      tm_.evictions->add();
    }
  }
}

// ---------------------------------------------------------------------------
// accounting
// ---------------------------------------------------------------------------

PmStats PmOctree::stats() {
  PmStats s;
  std::unordered_set<std::uint64_t> nvbm_union;
  std::vector<NodeRef> stack{cur_root_};
  while (!stack.empty()) {
    const NodeRef ref = stack.back();
    stack.pop_back();
    const PNode node = ref.in_dram() ? load_node(ref.dram_ptr())
                                     : nv_load(ref.nvbm_offset());
    ++s.nodes;
    if (node.is_leaf()) ++s.leaves;
    if (ref.in_dram()) {
      ++s.dram_nodes;
    } else {
      ++s.nvbm_nodes_vi;
      nvbm_union.insert(ref.nvbm_offset());
    }
    s.depth = std::max(s.depth, node.code().level());
    for (int i = 0; i < kChildrenPerNode; ++i) {
      if (node.has_child(i)) stack.push_back(node.child_ref(i));
    }
  }
  collect_reachable_nvbm(prev_root_, nvbm_union);
  s.unique_physical_nodes = s.dram_nodes + nvbm_union.size();
  s.nvbm_live_bytes = nvbm_union.size() * kNodeSize;
  s.dram_bytes = dram_bytes();
  depth_ = std::max(depth_, s.depth);
  return s;
}

std::uint64_t PmOctree::modeled_ns() const {
  return dram_.modeled_ns() + heap_.device().counters().modeled_ns();
}

void PmOctree::reset_counters() {
  dram_ = DramCounters{};
  device().reset_counters();
}

}  // namespace pmo::pmoctree
