// Read-only query engine over pinned PM-octree snapshots (src/serve).
//
// Every persisted version V_{i-1} is an immutable NVBM-resident octree;
// a SnapshotHandle (pmoctree/snapshot.hpp) pins one so its bytes cannot
// be freed or reused while readers traverse it. This layer is what runs
// ON those pinned bytes: point lookup, region/box query,
// face-neighbor find, and coarse/fine interface extraction — the
// post-hoc tree-extraction analysis pattern — executing concurrently
// with the droplet mutator on the exec::ThreadPool.
//
// Concurrency model. A Reader owns ALL of its traversal state:
//  * a PRIVATE NodeCache (the shared tree cache mutates on read — clock
//    ref bits — and is single-owner by contract; see node_cache.hpp);
//  * local ReadCharges instead of the Device counter struct. The Device's
//    read()/touch_read() paths mutate shared counters, so readers load
//    nodes via Device::raw() (a bounds-checked pointer, no mutation) and
//    model the charge locally. Pinned bytes are never written by the mutator, so the
//    concurrent memcpy is race-free by construction.
// One Reader is one logical lane: it is itself single-owner (sequential
// hand-off between threads is fine, concurrent entry is not — the debug
// cache guard fires). Run N concurrent readers as N Readers.
//
// Determinism. Results are pure functions of (snapshot, query): byte
// identical across thread counts and runs. Charges are a pure function
// of the reader's query SEQUENCE (the private cache carries state across
// queries), so fixed per-lane query streams — the bench's verification
// sweep — yield bit-identical charges for --threads 1 and 8.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/morton.hpp"
#include "octree/cell_data.hpp"
#include "pmoctree/node.hpp"
#include "pmoctree/node_cache.hpp"
#include "pmoctree/snapshot.hpp"

namespace pmo::serve {

/// Inclusive axis-aligned box on the finest (level kMaxLevel) grid.
struct Box {
  std::uint32_t lo[3] = {0, 0, 0};
  std::uint32_t hi[3] = {0, 0, 0};

  bool intersects(const Anchor& a, std::uint32_t extent) const noexcept {
    return a.x <= hi[0] && a.x + extent - 1 >= lo[0] &&  //
           a.y <= hi[1] && a.y + extent - 1 >= lo[1] &&  //
           a.z <= hi[2] && a.z + extent - 1 >= lo[2];
  }
};

/// One result cell: the leaf octant and its payload.
struct Leaf {
  LocCode code;
  CellData data;
};

/// A coarse/fine interface facet: a fine leaf and its coarser face
/// neighbor, plus the face of the fine leaf it sits on (0..5 encoding
/// -x,+x,-y,+y,-z,+z).
struct InterfaceFacet {
  Leaf fine;
  Leaf coarse;
  int face = 0;
};

/// Locally modeled NVBM read traffic of one reader (the serve analog of
/// the Device counter struct; merged by the bench in lane order).
struct ReadCharges {
  std::uint64_t node_loads = 0;    ///< NVBM PNode reads (cache misses)
  std::uint64_t cached_loads = 0;  ///< private-cache hits (DRAM latency)
  std::uint64_t lines_read = 0;    ///< NVBM cache lines fetched
  std::uint64_t modeled_ns = 0;    ///< modeled read time, NVBM + cached

  void merge(const ReadCharges& o) noexcept {
    node_loads += o.node_loads;
    cached_loads += o.cached_loads;
    lines_read += o.lines_read;
    modeled_ns += o.modeled_ns;
  }
};

struct ReaderConfig {
  /// Private node-cache budget (0 disables caching for this reader).
  std::size_t cache_bytes = std::size_t{256} << 10;
};

class Reader {
 public:
  /// Binds to a pinned snapshot. The handle is copied (refcount +1), so
  /// the pin outlives the caller's handle while the Reader is alive.
  explicit Reader(pmoctree::SnapshotHandle snap, ReaderConfig cfg = {});

  /// Re-targets the reader at a newer (or any other) pinned snapshot,
  /// keeping the private cache: entries are epoch-stamped, so stale ones
  /// die naturally on lookup. Charges keep accumulating.
  void rebind(pmoctree::SnapshotHandle snap);

  const pmoctree::SnapshotHandle& snapshot() const noexcept { return snap_; }

  // ---- queries -------------------------------------------------------------

  /// Leaf whose volume contains `code` (point lookup by locational
  /// code). Descends at most code.level() levels.
  Leaf locate(const LocCode& code);
  /// Exact-octant lookup; nullopt when the octant does not exist in the
  /// snapshot.
  std::optional<CellData> find(const LocCode& code);
  /// Visits every leaf intersecting `box` in Morton (pre-)order; returns
  /// the leaf count.
  std::size_t query_box(const Box& box,
                        const std::function<void(const Leaf&)>& fn);
  /// Visits every leaf sharing a face with `leaf` (same size, coarser,
  /// or finer), faces in -x,+x,-y,+y,-z,+z order; returns the count.
  std::size_t face_neighbors(const LocCode& leaf,
                             const std::function<void(const Leaf&)>& fn);
  /// Extracts the coarse/fine interface inside `box`: every (fine leaf,
  /// coarser face neighbor) pair, each reported exactly once, from the
  /// fine side. Returns the facet count.
  std::size_t interface_facets(
      const Box& box, const std::function<void(const InterfaceFacet&)>& fn);

  // ---- accounting ----------------------------------------------------------

  const ReadCharges& charges() const noexcept { return charges_; }
  const pmoctree::NodeCache::Stats& cache_stats() const noexcept {
    return cache_.stats();
  }
  std::uint64_t queries() const noexcept { return queries_; }

 private:
  /// Reads a node through pmoctree::load_node, charging the lines it
  /// copies: NVBM latency on a miss, DRAM latency on a private-cache hit.
  pmoctree::PNode load(std::uint64_t offset);
  std::uint64_t lines(std::size_t bytes) const noexcept;
  pmoctree::PNode root();
  void count_query(telemetry::Counter* c);
  /// Uncounted box DFS shared by query_box / neighbors / interface.
  std::size_t box_walk(const Box& box,
                       const std::function<void(const Leaf&)>& fn);

  pmoctree::SnapshotHandle snap_;
  pmoctree::NodeCache cache_;
  ReadCharges charges_;
  std::uint64_t queries_ = 0;
  std::uint64_t read_ns_ = 0;       ///< device NVBM per-line read latency
  std::uint64_t dram_read_ns_ = 0;  ///< device DRAM per-line read latency
  int line_shift_ = 6;              ///< log2 of the device line size
  /// serve.queries.{point,box,neighbors,interface} — process-global,
  /// thread-safe relaxed adds, resolved once per Reader.
  telemetry::Counter* q_point_ = nullptr;
  telemetry::Counter* q_box_ = nullptr;
  telemetry::Counter* q_neighbors_ = nullptr;
  telemetry::Counter* q_interface_ = nullptr;
};

}  // namespace pmo::serve
