#include "amr/neighbor_index.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/morton.hpp"

namespace pmo::amr {

namespace {

/// Keys with the sub-octant bits of `level` cleared compare equal iff one
/// octant is the other's ancestor — the key-mask form of
/// LocCode::contains (ancestor_at truncates exactly these bits).
inline std::uint64_t level_mask(int level) noexcept {
  return ~((std::uint64_t{1} << (3 * (kMaxLevel - level))) - 1);
}

/// One neighbor resolution request: the same-size neighbor key of leaf
/// `out / 6` across face `out % 6`, plus that leaf's level for the
/// covering test. 16 bytes; 6n of them per build.
struct Query {
  std::uint64_t nkey;
  std::uint32_t out;  ///< slot table index (6*leaf + face)
  std::uint8_t level; ///< querying leaf's level
};

}  // namespace

void gather_relax(const double* vof, const double* tracer,
                  const std::int32_t* nbr, std::size_t begin,
                  std::size_t end, double* relaxed,
                  std::uint8_t* touched) noexcept {
  for (std::size_t i = begin; i < end; ++i) {
    const double v = vof[i];
    const double t = tracer[i];
    if (gather_skip_cell(v, t)) continue;
    double acc = 0.0;
    int n = 0;
    const std::int32_t* slots =
        nbr + static_cast<std::size_t>(kFaceCount) * i;
    for (int f = 0; f < kFaceCount; ++f) {
      const std::int32_t s = slots[f];
      if (s < 0) continue;
      acc += tracer[static_cast<std::size_t>(s)];
      ++n;
    }
    const double r = n > 0 ? 0.5 * t + 0.5 * (acc / n) : t;
    relaxed[i] = r + 0.1 * v;
    touched[i] = 1;
  }
}

void FaceNeighborIndex::build(const std::uint64_t* keys,
                              const std::uint8_t* levels, std::size_t n) {
  PMO_DCHECK(n < static_cast<std::size_t>(INT32_MAX) / kFaceCount);
  slots_.assign(n * static_cast<std::size_t>(kFaceCount), -1);
  leaves_ = n;
  valid_ = false;  // caller stamps after build
  last_build_probes_ = 0;
  if (n == 0) return;

  constexpr std::size_t kBlock = 8;
  std::uint32_t xs[kBlock], ys[kBlock], zs[kBlock];
  std::uint32_t nxs[kBlock], nys[kBlock], nzs[kBlock];
  std::uint64_t nkeys[kBlock];
  bool in_domain[kBlock];

  // Pass 1: compute all 6n same-size neighbor keys, 8 leaves at a time
  // through the BMI2 batch kernels. Out-of-domain faces keep slot -1 and
  // produce no query.
  std::vector<Query> queries;
  queries.reserve(n * static_cast<std::size_t>(kFaceCount));
  for (int f = 0; f < kFaceCount; ++f) {
    const int dx = kFaces[f][0];
    const int dy = kFaces[f][1];
    const int dz = kFaces[f][2];
    for (std::size_t i = 0; i < n; i += kBlock) {
      const std::size_t m = n - i < kBlock ? n - i : kBlock;
      // Finest-grid anchors of leaves i..i+m-1.
      morton_decode3_batch(keys + i, xs, ys, zs, m);
      for (std::size_t l = 0; l < m; ++l) {
        const int level = levels[i + l];
        const int shift = kMaxLevel - level;
        const std::int64_t side = std::int64_t{1} << level;
        const std::int64_t gx =
            static_cast<std::int64_t>(xs[l] >> shift) + dx;
        const std::int64_t gy =
            static_cast<std::int64_t>(ys[l] >> shift) + dy;
        const std::int64_t gz =
            static_cast<std::int64_t>(zs[l] >> shift) + dz;
        in_domain[l] = gx >= 0 && gx < side && gy >= 0 && gy < side &&
                       gz >= 0 && gz < side;
        // Out-of-domain lanes encode a dummy key; their slot stays -1.
        nxs[l] = in_domain[l]
                     ? static_cast<std::uint32_t>(gx) << shift
                     : 0;
        nys[l] = in_domain[l]
                     ? static_cast<std::uint32_t>(gy) << shift
                     : 0;
        nzs[l] = in_domain[l]
                     ? static_cast<std::uint32_t>(gz) << shift
                     : 0;
      }
      morton_encode3_batch(nxs, nys, nzs, nkeys, m);
      for (std::size_t l = 0; l < m; ++l) {
        if (!in_domain[l]) continue;
        queries.push_back(
            {nkeys[l],
             static_cast<std::uint32_t>(
                 (i + l) * static_cast<std::size_t>(kFaceCount) +
                 static_cast<std::size_t>(f)),
             static_cast<std::uint8_t>(levels[i + l])});
      }
    }
  }

  // Pass 2: sort the queries by neighbor key and resolve them all with
  // ONE merge sweep over the sorted leaf keys. The cursor `j` tracks the
  // last leaf with keys[j] <= query key; it only moves forward, so the
  // whole build inspects each leaf key once plus one boundary check and
  // one covering test per query — O(1) amortized candidate inspections
  // per face, versus O(log n) for a per-face binary search. Ties in the
  // sort are irrelevant: equal neighbor keys resolve to the same cursor.
  // Probe counting convention (LeafChunk::find's): every candidate-slot
  // key inspection is one probe, so `last_build_probes_` is directly
  // comparable to amr.chunk.find_probes.
  std::sort(queries.begin(), queries.end(),
            [](const Query& a, const Query& b) { return a.nkey < b.nkey; });
  std::uint64_t probes = 0;
  std::size_t j = 0;
  for (const Query& q : queries) {
    while (j + 1 < n) {
      ++probes;
      if (keys[j + 1] <= q.nkey) {
        ++j;
      } else {
        break;
      }
    }
    // Candidate validity + covering test, LeafChunk::find semantics: a
    // coarser-or-equal candidate must contain the same-size neighbor
    // octant; a finer candidate must be its first descendant corner
    // leaf. One key inspection.
    ++probes;
    if (keys[j] > q.nkey) continue;  // query precedes every leaf
    const int lc = levels[j];
    const int ll = q.level;
    const bool covered = lc <= ll
                             ? (q.nkey & level_mask(lc)) == keys[j]
                             : (keys[j] & level_mask(ll)) == q.nkey;
    if (covered) slots_[q.out] = static_cast<std::int32_t>(j);
  }
  last_build_probes_ = probes;
}

}  // namespace pmo::amr
