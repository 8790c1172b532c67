// PM-octree node representation.
//
// A PM-octree is a single logical octree whose octants live in two tiers:
// DRAM (the hot C0 subtrees) and NVBM (the C1 tree plus the whole previous
// version V_{i-1}). Links between octants therefore must address both
// tiers: NodeRef packs either a DRAM pointer or an NVBM heap offset into
// one tagged 64-bit word. This is the "special pointers linking persistent
// octants in NVBM and volatile octants in DRAM" the paper's library manages
// for the application (§1, challenge 3).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "common/morton.hpp"
#include "nvbm/heap.hpp"
#include "octree/cell_data.hpp"

namespace pmo::pmoctree {

struct PNode;

/// Tagged reference to a PM-octree node.
///
/// Encoding: 0 is null; otherwise bit 0 selects the tier. 1 = NVBM heap
/// offset shifted left by one; 0 = DRAM pointer (PNode* are 8-byte
/// aligned, so the low bits of a real pointer are 0).
class NodeRef {
 public:
  constexpr NodeRef() noexcept = default;

  static NodeRef dram(PNode* node) noexcept {
    return NodeRef(reinterpret_cast<std::uint64_t>(node));
  }
  static constexpr NodeRef nvbm(std::uint64_t offset) noexcept {
    return NodeRef((offset << 1) | 1u);
  }

  constexpr bool null() const noexcept { return bits_ == 0; }
  explicit constexpr operator bool() const noexcept { return bits_ != 0; }
  constexpr bool in_nvbm() const noexcept { return (bits_ & 1u) != 0; }
  constexpr bool in_dram() const noexcept {
    return bits_ != 0 && (bits_ & 1u) == 0;
  }

  PNode* dram_ptr() const noexcept {
    PMO_DCHECK(in_dram());
    return reinterpret_cast<PNode*>(bits_);
  }
  constexpr std::uint64_t nvbm_offset() const noexcept {
    PMO_DCHECK(in_nvbm());
    return bits_ >> 1;
  }

  /// Raw tagged bits — this exact word is what gets stored inside
  /// persistent child slots.
  constexpr std::uint64_t bits() const noexcept { return bits_; }
  static constexpr NodeRef from_bits(std::uint64_t bits) noexcept {
    return NodeRef(bits);
  }

  friend constexpr bool operator==(const NodeRef&, const NodeRef&) = default;

 private:
  explicit constexpr NodeRef(std::uint64_t bits) noexcept : bits_(bits) {}
  std::uint64_t bits_ = 0;
};

struct NodeRefHash {
  std::size_t operator()(const NodeRef& r) const noexcept {
    std::uint64_t h = r.bits();
    h ^= h >> 33;
    h *= 0xc2b2ae3d27d4eb4full;
    h ^= h >> 29;
    return static_cast<std::size_t>(h);
  }
};

/// Node flags. Bit 0 is unused.
enum NodeFlags : std::uint32_t {
  /// Dirty-subtree summary bit (DRAM-resident nodes only): some octant in
  /// this node's subtree mutated since the last persist, so the merge
  /// must recurse here. A clean DRAM node (bit unset, epoch < current,
  /// durable twin recorded) is skipped in O(1). The bit never reaches
  /// NVBM bytes — every node store to the device strips it, keeping the
  /// persisted image independent of mutation history.
  kNodeSubtreeDirty = 1u << 1,
  /// Child-presence bitmask: bit (8 + i) is set iff child[i] is non-null.
  /// Maintained by set_child, so is_leaf() and child iteration test one
  /// word instead of scanning all 8 NodeRef slots. It is the authority on
  /// which slots hold refs: a read copies the link line only when the
  /// mask is non-zero, so a leaf's link line is never read. Any store
  /// that moves the mask must also write the flags word to keep the
  /// durable mask coherent.
  kNodeChildMaskShift = 8,
  kNodeChildMask = 0xffu << kNodeChildMaskShift,
};

/// The octant record, identical layout in DRAM and NVBM so merging is a
/// copy plus link fix-up. Trivially copyable by construction.
///
/// 128 bytes in two 64-byte lines, each holding what one kind of access
/// needs:
///  * the payload line [0, 64): the locational code as one word (8), the
///    payload (48), then flags with the child-presence mask (4) and the
///    epoch (4);
///  * the link line [64, 128): the eight child refs.
/// A read copies the payload line, and the link line only when the mask
/// says the octant has children (load_node), so a leaf visit moves one
/// line. A store writes only the lines whose bytes change: a data
/// write-back the payload line, a relink that keeps the mask the link
/// line, a children store the link line plus the flags word. Every
/// modeled access is charged for the lines it copies. On NVBM each node
/// fills one line-aligned heap slot, and C0 slots are 64-byte aligned,
/// so each line of the layout is one host cache line in both tiers.
struct PNode {
  /// LocCode::word() of the octant (the root's by default).
  std::uint64_t code_word = 1;
  CellData data;
  std::uint32_t flags = 0;
  /// Epoch (persist generation) in which this physical node was created.
  /// A node with epoch < the tree's current epoch is (potentially) shared
  /// with V_{i-1} and must be updated via copy-on-write; a node created in
  /// the current epoch is private to V_i and may be updated in place
  /// (paper §3.2).
  std::uint32_t epoch = 0;
  std::uint64_t child[kChildrenPerNode] = {};   ///< NodeRef bits

  LocCode code() const noexcept { return LocCode::from_word(code_word); }
  void set_code(const LocCode& c) noexcept { code_word = c.word(); }

  NodeRef child_ref(int i) const noexcept {
    return NodeRef::from_bits(child[i]);
  }
  void set_child(int i, NodeRef r) noexcept {
    child[i] = r.bits();
    const std::uint32_t bit = 1u << (kNodeChildMaskShift + i);
    if (r.null())
      flags &= ~bit;
    else
      flags |= bit;
  }

  std::uint8_t child_mask() const noexcept {
    return static_cast<std::uint8_t>(flags >> kNodeChildMaskShift);
  }
  bool has_child(int i) const noexcept {
    return (flags & (1u << (kNodeChildMaskShift + i))) != 0;
  }
  bool is_leaf() const noexcept { return (flags & kNodeChildMask) == 0; }
};

/// Bytes of the payload line; the link line follows it.
inline constexpr std::size_t kPayloadBytes = 64;

/// Bytes a read of `node` copies: the payload line, plus the link line
/// when the node has children.
inline std::size_t read_bytes(const PNode& node) noexcept {
  return node.is_leaf() ? kPayloadBytes : sizeof(PNode);
}

/// Reads the node image at `image` the way every read does: the payload
/// line, then the link line only when the presence mask is non-zero. A
/// leaf's refs come back null whatever its link line holds. The read is
/// charged read_bytes() of the result.
inline PNode load_node(const void* image) noexcept {
  static constexpr std::uint64_t kNullLinks[kChildrenPerNode] = {};
  const auto* src = static_cast<const std::byte*>(image);
  // The link source is a select, not a branch: leaves and internal
  // octants interleave in every traversal. Returning by value lets the
  // two copies replace PNode's default initialization.
  std::uint32_t flags;
  std::memcpy(&flags, src + offsetof(PNode, flags), sizeof(flags));
  const void* links = (flags & kNodeChildMask) == 0
                          ? static_cast<const void*>(kNullLinks)
                          : src + kPayloadBytes;
  PNode out;
  std::memcpy(static_cast<void*>(&out), src, kPayloadBytes);
  std::memcpy(out.child, links, sizeof(out.child));
  return out;
}

static_assert(std::is_trivially_copyable_v<PNode>);
static_assert(sizeof(PNode) == nvbm::Heap::kSlotBytes,
              "a PNode fills one heap slot: exactly two 64 B lines");
// load_node and the partial stores (pm_octree.cpp) address these fields
// in place: the payload line [0, 64), the link line [64, 128), the flags
// word, and reclamation reads the epoch word alone.
static_assert(offsetof(PNode, code_word) == 0);
static_assert(offsetof(PNode, data) == 8);
static_assert(offsetof(PNode, flags) == 56);
static_assert(offsetof(PNode, epoch) == 60);
static_assert(offsetof(PNode, child) == kPayloadBytes);
static_assert(sizeof(PNode) == 2 * kPayloadBytes);

}  // namespace pmo::pmoctree
