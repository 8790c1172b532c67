#include "serve/reader.hpp"

#include <bit>
#include <utility>

#include "nvbm/device.hpp"

namespace pmo::serve {

namespace {
constexpr std::size_t kNodeSize = sizeof(pmoctree::PNode);

/// -x,+x,-y,+y,-z,+z — the face order every neighbor API here reports.
constexpr int kFaceDirs[6][3] = {{-1, 0, 0}, {1, 0, 0},  {0, -1, 0},
                                 {0, 1, 0},  {0, 0, -1}, {0, 0, 1}};

/// The 1-cell-thick (finest-grid) slab adjacent to face `f` of `code`:
/// the exact region every face neighbor — same size, coarser, or finer —
/// must intersect. False when the face lies on the domain boundary.
bool face_slab(const LocCode& code, int f, Box& out) noexcept {
  const Anchor a = code.anchor();
  const std::uint32_t e = code.extent();
  const std::uint32_t max = (std::uint32_t{1} << kMaxLevel) - 1;
  const std::uint32_t av[3] = {a.x, a.y, a.z};
  for (int ax = 0; ax < 3; ++ax) {
    const int d = kFaceDirs[f][ax];
    if (d == 0) {
      out.lo[ax] = av[ax];
      out.hi[ax] = av[ax] + e - 1;
    } else if (d < 0) {
      if (av[ax] == 0) return false;
      out.lo[ax] = out.hi[ax] = av[ax] - 1;
    } else {
      if (av[ax] + e > max) return false;
      out.lo[ax] = out.hi[ax] = av[ax] + e;
    }
  }
  return true;
}
}  // namespace

Reader::Reader(pmoctree::SnapshotHandle snap, ReaderConfig cfg)
    : snap_(std::move(snap)), cache_(cfg.cache_bytes) {
  PMO_CHECK_MSG(snap_.valid(),
                "serve::Reader requires a valid (pinned) SnapshotHandle");
  const auto& dc = snap_.device().config();
  const bool timed = dc.latency_mode != nvbm::LatencyMode::kNone;
  read_ns_ = timed ? dc.read_ns : 0;
  dram_read_ns_ = timed ? dc.dram_read_ns : 0;
  line_shift_ = std::countr_zero(dc.cache_line);  // a power of two
  auto& reg = telemetry::Registry::global();
  q_point_ = &reg.counter("serve.queries.point");
  q_box_ = &reg.counter("serve.queries.box");
  q_neighbors_ = &reg.counter("serve.queries.neighbors");
  q_interface_ = &reg.counter("serve.queries.interface");
}

void Reader::rebind(pmoctree::SnapshotHandle snap) {
  PMO_CHECK_MSG(snap.valid(), "serve::Reader rebind to a released handle");
  // The private cache survives: entries are stamped with the epoch they
  // were read under, so anything from the previous snapshot misses and
  // gets re-read. Offsets reused by the heap after an unpin+gc can only
  // carry a NEWER epoch's node, never a stale stamp hit.
  snap_ = std::move(snap);
}

void Reader::count_query(telemetry::Counter* c) {
  ++queries_;
  if (c != nullptr) c->add();
}

std::uint64_t Reader::lines(std::size_t bytes) const noexcept {
  return ((bytes - 1) >> line_shift_) + 1;
}

pmoctree::PNode Reader::load(std::uint64_t offset) {
  const std::uint32_t stamp = snap_.epoch();
  const pmoctree::PNode* hit =
      cache_.capacity() != 0 ? cache_.lookup(offset, stamp) : nullptr;
  // Device::raw is a bounds check + pointer: no counter mutation, so the
  // concurrent-reader contract holds. The pin guarantees the mutator
  // never writes these bytes, making the copy race-free.
  const pmoctree::PNode node = pmoctree::load_node(
      hit != nullptr ? static_cast<const void*>(hit)
                     : snap_.device().raw(offset, kNodeSize));
  const std::uint64_t n = lines(pmoctree::read_bytes(node));
  if (hit != nullptr) {
    ++charges_.cached_loads;
    charges_.modeled_ns += n * dram_read_ns_;
    return node;
  }
  ++charges_.node_loads;
  // Charged for the lines load_node copies (one for a leaf, two for an
  // internal octant), a function of the node's content, not of its
  // offset: heap layout legitimately diverges between runs (GC timing vs
  // live pins), and the charge must stay a pure function of the query
  // stream — the bench's bit-identity surface.
  charges_.lines_read += n;
  charges_.modeled_ns += n * read_ns_;
  if (cache_.capacity() != 0) cache_.insert(offset, node, stamp);
  return node;
}

pmoctree::PNode Reader::root() { return load(snap_.root_offset()); }

// The descents below follow `code`'s ancestors, so the depth reached
// gives the level without decoding each loaded node's code word.

Leaf Reader::locate(const LocCode& code) {
  count_query(q_point_);
  pmoctree::PNode node = root();
  int level = 0;
  while (!node.is_leaf() && level < code.level()) {
    const int next = code.ancestor_at(level + 1).child_index();
    // Partial sibling group: this node covers code.
    if (!node.has_child(next)) break;
    node = load(node.child_ref(next).nvbm_offset());
    ++level;
  }
  return {node.code(), node.data};
}

std::optional<CellData> Reader::find(const LocCode& code) {
  count_query(q_point_);
  pmoctree::PNode node = root();
  for (int level = 0; level < code.level(); ++level) {
    if (node.is_leaf()) return std::nullopt;
    const int next = code.ancestor_at(level + 1).child_index();
    if (!node.has_child(next)) return std::nullopt;
    node = load(node.child_ref(next).nvbm_offset());
  }
  if (node.code_word == code.word()) return node.data;
  return std::nullopt;
}

std::size_t Reader::query_box(const Box& box,
                              const std::function<void(const Leaf&)>& fn) {
  count_query(q_box_);
  return box_walk(box, fn);
}

std::size_t Reader::box_walk(const Box& box,
                             const std::function<void(const Leaf&)>& fn) {
  std::size_t n = 0;
  if (!box.intersects(Anchor{}, std::uint32_t{1} << kMaxLevel)) return 0;
  std::vector<std::uint64_t> stack{snap_.root_offset()};
  while (!stack.empty()) {
    const std::uint64_t off = stack.back();
    stack.pop_back();
    const pmoctree::PNode node = load(off);
    const LocCode code = node.code();  // decoded once per loaded node
    if (node.is_leaf()) {
      fn(Leaf{code, node.data});
      ++n;
      continue;
    }
    // Children are pruned by their (computable) codes before loading, in
    // reverse so the pop order is Morton pre-order — deterministic.
    for (int i = kChildrenPerNode - 1; i >= 0; --i) {
      if (!node.has_child(i)) continue;
      const LocCode cc = code.child(i);
      if (box.intersects(cc.anchor(), cc.extent()))
        stack.push_back(node.child_ref(i).nvbm_offset());
    }
  }
  return n;
}

std::size_t Reader::face_neighbors(
    const LocCode& leaf, const std::function<void(const Leaf&)>& fn) {
  count_query(q_neighbors_);
  std::size_t n = 0;
  for (int f = 0; f < 6; ++f) {
    Box slab;
    if (!face_slab(leaf, f, slab)) continue;
    n += box_walk(slab, fn);
  }
  return n;
}

std::size_t Reader::interface_facets(
    const Box& box, const std::function<void(const InterfaceFacet&)>& fn) {
  count_query(q_interface_);
  std::vector<Leaf> leaves;
  box_walk(box, [&](const Leaf& l) { leaves.push_back(l); });
  std::size_t n = 0;
  for (const Leaf& l : leaves) {
    for (int f = 0; f < 6; ++f) {
      Box slab;
      if (!face_slab(l.code, f, slab)) continue;
      box_walk(slab, [&](const Leaf& nb) {
        // Reported from the fine side only, so each facet appears once.
        if (nb.code.level() < l.code.level()) {
          fn(InterfaceFacet{l, nb, f});
          ++n;
        }
      });
    }
  }
  return n;
}

}  // namespace pmo::serve
