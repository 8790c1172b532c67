#include "amr/mesh_backend.hpp"

#include <algorithm>
#include <vector>

#include "exec/pool.hpp"
#include "telemetry/telemetry.hpp"

namespace pmo::amr {

const CellData* LeafChunk::find(const LocCode& code) const noexcept {
  if (leaves == 0) return nullptr;
  // Containment search: the candidate is the last leaf whose key is
  // <= code's key (leaves partition the domain); it covers
  // `code` iff code lies in its octant. Stencil gathers probe in
  // near-Morton order, so first try the last candidate (and its right
  // neighbor) before paying for the binary search. Every candidate-slot
  // key inspection counts one probe (the perf_smoke baseline the
  // face-neighbor index is gated against).
  std::size_t idx;
  const std::size_t h = hint < leaves ? hint : 0;
  ++probes;
  if (codes[h].key() <= code.key() &&
      (h + 1 == leaves || code.key() < codes[h + 1].key())) {
    idx = h;
  } else if (++probes, h + 2 <= leaves && codes[h + 1].key() <= code.key() &&
                           (h + 2 == leaves ||
                            code.key() < codes[h + 2].key())) {
    idx = h + 1;
  } else {
    // upper_bound by key, written out so each bisection step is counted.
    std::size_t lo = 0;
    std::size_t hi = leaves;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      ++probes;
      if (codes[mid].key() <= code.key()) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == 0) return nullptr;
    idx = lo - 1;
  }
  hint = idx;
  const LocCode& leaf = codes[idx];
  if (leaf.level() <= code.level()) {
    return leaf.contains(code) ? &cells[idx] : nullptr;
  }
  // The covering region is refined finer than `code`: the candidate is
  // code's first descendant corner leaf.
  return code.contains(leaf) ? &cells[idx] : nullptr;
}

void MeshBackend::sweep_leaves_chunked(std::size_t chunks,
                                       const LeafChunkFn& fn,
                                       exec::ThreadPool* pool,
                                       const LeafPrepareFn& prepare) {
  // Charged extraction: the traversal goes through the backend's normal
  // read path, so the solver's read traffic stays in the modeled time
  // and heat statistics exactly once per sweep.
  std::vector<LocCode> codes;
  std::vector<CellData> cells;
  visit_leaves([&](const LocCode& c, const CellData& d) {
    codes.push_back(c);
    cells.push_back(d);
  });
  const std::size_t n = codes.size();
  if (prepare) prepare(n);
  if (n == 0) return;
  chunks = std::clamp<std::size_t>(chunks, 1, n);
  auto& probe_counter =
      telemetry::Registry::global().counter("amr.chunk.find_probes");
  const auto run_chunk = [&](std::size_t k) {
    LeafChunk ch;
    ch.index = k;
    ch.begin = k * n / chunks;
    ch.end = (k + 1) * n / chunks;
    ch.codes = codes.data();
    ch.cells = cells.data();
    ch.leaves = n;
    fn(ch);
    // Counter adds commute, so the per-sweep total is thread-count
    // independent (each chunk's probe sequence is fixed).
    if (ch.probes != 0) probe_counter.add(ch.probes);
  };
  // When the sweep is reached from inside a pool task (a serve-style
  // mutator running as one run_tasks() lane), fall back to inline chunks
  // instead of tripping the nesting guard — same decomposition, same
  // results, sequential execution.
  if (pool != nullptr && !exec::in_parallel_task()) {
    pool->parallel_for(chunks, run_chunk);
  } else {
    for (std::size_t k = 0; k < chunks; ++k) run_chunk(k);
  }
}

void MeshBackend::dispatch_soa_chunks(const SoaLeaves& soa,
                                      std::size_t chunks,
                                      const SoaLeafChunkFn& fn,
                                      exec::ThreadPool* pool,
                                      const SoaPrepareFn& prepare) {
  const std::size_t n = soa.size();
  if (prepare) prepare(soa);
  if (n == 0) return;
  chunks = std::clamp<std::size_t>(chunks, 1, n);
  const auto run_chunk = [&](std::size_t k) {
    SoaLeafChunk ch;
    ch.index = k;
    ch.begin = k * n / chunks;
    ch.end = (k + 1) * n / chunks;
    ch.leaves = &soa;
    fn(ch);
  };
  if (pool != nullptr && !exec::in_parallel_task()) {
    pool->parallel_for(chunks, run_chunk);
  } else {
    for (std::size_t k = 0; k < chunks; ++k) run_chunk(k);
  }
}

void MeshBackend::sweep_leaves_chunked_soa(std::size_t chunks,
                                           const SoaLeafChunkFn& fn,
                                           exec::ThreadPool* pool,
                                           const SoaPrepareFn& prepare) {
  // Same charged extraction as the AoS path, into parallel arrays.
  SoaLeaves soa;
  visit_leaves([&](const LocCode& c, const CellData& d) {
    soa.push_back(c, d);
  });
  dispatch_soa_chunks(soa, chunks, fn, pool, prepare);
}

}  // namespace pmo::amr
