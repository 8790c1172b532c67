// Tests for the face-neighbor index and the solve's Jacobi gather
// (src/amr/neighbor_index.cpp): the index's slot table must agree with
// the per-face LeafChunk::find baseline on arbitrary adaptive leaf sets,
// and gather_relax over those slots must be bit-identical to the same
// recurrence evaluated through LeafChunk::find (the solve's legacy arm)
// for every input — including NaN, infinite, denormal and -0.0 field
// values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "amr/mesh_backend.hpp"
#include "amr/neighbor_index.hpp"
#include "common/rng.hpp"
#include "octree/cell_data.hpp"

namespace pmo {
namespace {

/// Random adaptive (non-uniform) leaf partition of the domain: refine
/// with probability p until max_level, DFS child order 0..7, then sort by
/// key — a valid Morton-sorted leaf set, not necessarily 2:1 balanced
/// (neighbor resolution must not require balance).
void subdivide(const LocCode& code, int max_level, double p, Rng& rng,
               std::vector<LocCode>& out) {
  if (code.level() < max_level && (code.level() == 0 || rng.chance(p))) {
    for (int i = 0; i < kChildrenPerNode; ++i)
      subdivide(code.child(i), max_level, p, rng, out);
  } else {
    out.push_back(code);
  }
}

std::vector<LocCode> random_leafset(std::uint64_t seed, int max_level,
                                    double p) {
  Rng rng(seed);
  std::vector<LocCode> out;
  subdivide(LocCode::root(), max_level, p, rng, out);
  std::sort(out.begin(), out.end(),
            [](const LocCode& a, const LocCode& b) {
              return a.key() < b.key();
            });
  return out;
}

/// Level-extremes set: a "corner path" refined all the way to kMaxLevel —
/// at every level, siblings 1..7 stay leaves and child 0 descends. Has
/// leaves at every level in [1, kMaxLevel], exercising the key-mask
/// containment math at both ends.
std::vector<LocCode> corner_path_leafset() {
  std::vector<LocCode> out;
  LocCode at = LocCode::root();
  for (int l = 0; l < kMaxLevel; ++l) {
    for (int i = 1; i < kChildrenPerNode; ++i) out.push_back(at.child(i));
    at = at.child(0);
  }
  out.push_back(at);
  std::sort(out.begin(), out.end(),
            [](const LocCode& a, const LocCode& b) {
              return a.key() < b.key();
            });
  return out;
}

struct Fields {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint8_t> levels;
  std::vector<double> vof;
  std::vector<double> tracer;
  std::vector<CellData> cells;  ///< AoS mirror for LeafChunk
};

/// Field arrays over a leaf set, seeded with uniform values plus a
/// sprinkling of IEEE special values: NaN, +/-0.0, denormals, infinity,
/// and exact-skip (0,0) cells.
Fields make_fields(const std::vector<LocCode>& codes, std::uint64_t seed) {
  Fields f;
  Rng rng(seed);
  const double specials[] = {
      std::numeric_limits<double>::quiet_NaN(),
      -0.0,
      0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      1e-9,  // the skip threshold itself
      std::numeric_limits<double>::infinity(),
  };
  for (const auto& c : codes) {
    CellData d;
    const std::uint64_t roll = rng.below(10);
    if (roll == 0) {
      d.vof = 0.0;  // gas cell: skip candidate
      d.tracer = rng.chance(0.5) ? 0.0 : 1e-9;
    } else if (roll == 1) {
      d.vof = rng.chance(0.5) ? 0.0 : rng.uniform();
      d.tracer = specials[rng.below(std::size(specials))];
    } else {
      d.vof = rng.uniform();
      d.tracer = rng.uniform(-1.0, 1.0);
    }
    f.keys.push_back(c.key());
    f.levels.push_back(static_cast<std::uint8_t>(c.level()));
    f.vof.push_back(d.vof);
    f.tracer.push_back(d.tracer);
    f.cells.push_back(d);
  }
  return f;
}

/// Runs gather_relax over [begin, end); output arrays prefilled with a
/// sentinel so untouched slots are detectable bit-exactly.
void run_gather(const Fields& f, const std::int32_t* nbr, std::size_t begin,
                std::size_t end, std::vector<double>& relaxed,
                std::vector<std::uint8_t>& touched) {
  relaxed.assign(f.keys.size(), -12345.678);
  touched.assign(f.keys.size(), 0xab);
  amr::gather_relax(f.vof.data(), f.tracer.data(), nbr, begin, end,
                    relaxed.data(), touched.data());
}

/// LeafChunk over the whole leaf set (the AoS shape the legacy solve arm
/// resolves neighbors in).
amr::LeafChunk whole_chunk(const std::vector<LocCode>& codes,
                           const Fields& f) {
  amr::LeafChunk ch;
  ch.begin = 0;
  ch.end = codes.size();
  ch.codes = codes.data();
  ch.cells = f.cells.data();
  ch.leaves = codes.size();
  return ch;
}

/// Reference gather: the documented recurrence with every face resolved
/// by LeafChunk::find, walked in kFaces order — the solve's legacy-arm
/// formula, independent of the slot table. Same sentinels as run_gather.
void reference_gather(const std::vector<LocCode>& codes, const Fields& f,
                      std::vector<double>& relaxed,
                      std::vector<std::uint8_t>& touched) {
  const amr::LeafChunk ch = whole_chunk(codes, f);
  relaxed.assign(codes.size(), -12345.678);
  touched.assign(codes.size(), 0xab);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const CellData& d = f.cells[i];
    if (d.vof <= 0.0 && d.tracer <= 1e-9) continue;  // gas cell
    double acc = 0.0;
    int n = 0;
    for (int face = 0; face < amr::kFaceCount; ++face) {
      LocCode nb;
      if (!codes[i].neighbor(amr::kFaces[face][0], amr::kFaces[face][1],
                             amr::kFaces[face][2], nb)) {
        continue;
      }
      if (const CellData* c = ch.find(nb)) {
        acc += c->tracer;
        ++n;
      }
    }
    const double r = n > 0 ? 0.5 * d.tracer + 0.5 * (acc / n) : d.tracer;
    relaxed[i] = r + 0.1 * d.vof;
    touched[i] = 1;
  }
}

/// Bitwise comparison of double arrays (== would equate -0.0/+0.0 and
/// reject NaN==NaN; the contract is bit-identity).
void expect_bits_equal(const std::vector<double>& a,
                       const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)));
}

TEST(Gather, GatherBitIdenticalOnRandomAdaptiveSets) {
  for (std::uint64_t seed : {7ull, 21ull, 99ull, 1234ull}) {
    const auto codes = random_leafset(seed, 5, 0.55);
    const Fields f = make_fields(codes, seed * 31 + 1);
    amr::FaceNeighborIndex index;
    index.build(f.keys.data(), f.levels.data(), f.keys.size());

    std::vector<double> r_index, r_ref;
    std::vector<std::uint8_t> t_index, t_ref;
    run_gather(f, index.slots(), 0, f.keys.size(), r_index, t_index);
    reference_gather(codes, f, r_ref, t_ref);
    expect_bits_equal(r_index, r_ref);
    EXPECT_EQ(t_index, t_ref) << "seed " << seed;
  }
}

TEST(Gather, GatherBitIdenticalAtLevelExtremes) {
  const auto codes = corner_path_leafset();
  // The corner leaf (anchor 0, level kMaxLevel) sorts first: its key is 0.
  ASSERT_EQ(static_cast<int>(codes.front().level()), kMaxLevel);
  const Fields f = make_fields(codes, 5);
  amr::FaceNeighborIndex index;
  index.build(f.keys.data(), f.levels.data(), f.keys.size());

  std::vector<double> r_index, r_ref;
  std::vector<std::uint8_t> t_index, t_ref;
  run_gather(f, index.slots(), 0, f.keys.size(), r_index, t_index);
  reference_gather(codes, f, r_ref, t_ref);
  expect_bits_equal(r_index, r_ref);
  EXPECT_EQ(t_index, t_ref);
}

TEST(Gather, GatherRespectsSubrangeAndSkips) {
  const auto codes = random_leafset(3, 4, 0.6);
  Fields f = make_fields(codes, 11);
  ASSERT_GT(f.keys.size(), 16u);
  // Force some guaranteed skip cells inside the range.
  f.vof[5] = 0.0;
  f.tracer[5] = 0.0;
  f.vof[6] = -0.25;  // vof <= 0 and tiny tracer: skip
  f.tracer[6] = 1e-9;
  amr::FaceNeighborIndex index;
  index.build(f.keys.data(), f.levels.data(), f.keys.size());

  const std::size_t begin = 3, end = f.keys.size() - 5;
  std::vector<double> relaxed;
  std::vector<std::uint8_t> touched;
  run_gather(f, index.slots(), begin, end, relaxed, touched);
  for (std::size_t i = 0; i < f.keys.size(); ++i) {
    const bool in_range = i >= begin && i < end;
    const bool skipped = amr::gather_skip_cell(f.vof[i], f.tracer[i]);
    if (!in_range || skipped) {
      EXPECT_EQ(relaxed[i], -12345.678) << "slot " << i;
      EXPECT_EQ(touched[i], 0xab) << "slot " << i;
    } else {
      EXPECT_EQ(touched[i], 1) << "slot " << i;
    }
  }
}

TEST(Gather, GatherRootOnlyLeafHasNoNeighbors) {
  // Single root leaf: all 6 slots are -1, so r == tracer (n == 0 branch).
  Fields f;
  f.keys.push_back(LocCode::root().key());
  f.levels.push_back(0);
  f.vof.push_back(0.5);
  f.tracer.push_back(0.75);
  amr::FaceNeighborIndex index;
  index.build(f.keys.data(), f.levels.data(), 1);
  for (int face = 0; face < amr::kFaceCount; ++face)
    EXPECT_EQ(index.slots()[face], -1);

  std::vector<double> relaxed;
  std::vector<std::uint8_t> touched;
  run_gather(f, index.slots(), 0, 1, relaxed, touched);
  EXPECT_EQ(relaxed[0], 0.75 + 0.1 * 0.5);
  EXPECT_EQ(touched[0], 1);
}

TEST(Gather, GatherScalarSemanticsMatchSpec) {
  // Hand-check the kernel against the documented recurrence on a uniform
  // level-1 mesh (8 leaves, each with 3 in-domain neighbors).
  const auto codes = random_leafset(1, 1, 1.0);
  ASSERT_EQ(codes.size(), 8u);
  Fields f;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    f.keys.push_back(codes[i].key());
    f.levels.push_back(1);
    f.vof.push_back(0.5);
    f.tracer.push_back(static_cast<double>(i));
  }
  amr::FaceNeighborIndex index;
  index.build(f.keys.data(), f.levels.data(), f.keys.size());

  std::vector<double> relaxed;
  std::vector<std::uint8_t> touched;
  run_gather(f, index.slots(), 0, f.keys.size(), relaxed, touched);
  for (std::size_t i = 0; i < f.keys.size(); ++i) {
    double acc = 0.0;
    int n = 0;
    for (int face = 0; face < amr::kFaceCount; ++face) {
      const std::int32_t s = index.slots()[6 * i + face];
      if (s >= 0) {
        acc += f.tracer[static_cast<std::size_t>(s)];
        ++n;
      }
    }
    ASSERT_EQ(n, 3) << "leaf " << i;
    const double expect = 0.5 * f.tracer[i] + 0.5 * (acc / n) + 0.1 * 0.5;
    EXPECT_EQ(relaxed[i], expect) << "leaf " << i;
  }
}

// ---------------------------------------------------------------------------
// Face-neighbor index vs the per-face LeafChunk::find baseline
// ---------------------------------------------------------------------------

/// Brute-force reference: resolve each face through LeafChunk::find (the
/// legacy solve arm) and translate the CellData* back to a slot index.
std::vector<std::int32_t> reference_slots(const std::vector<LocCode>& codes,
                                          const Fields& f) {
  const amr::LeafChunk ch = whole_chunk(codes, f);
  std::vector<std::int32_t> slots(codes.size() * amr::kFaceCount, -1);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    for (int face = 0; face < amr::kFaceCount; ++face) {
      LocCode nb;
      if (!codes[i].neighbor(amr::kFaces[face][0], amr::kFaces[face][1],
                             amr::kFaces[face][2], nb)) {
        continue;
      }
      const CellData* d = ch.find(nb);
      if (d != nullptr) {
        slots[amr::kFaceCount * i + face] =
            static_cast<std::int32_t>(d - f.cells.data());
      }
    }
  }
  return slots;
}

TEST(NeighborIndex, MatchesPerFaceFindOnRandomAdaptiveSets) {
  for (std::uint64_t seed : {2ull, 13ull, 77ull}) {
    const auto codes = random_leafset(seed, 5, 0.5);
    const Fields f = make_fields(codes, seed);
    amr::FaceNeighborIndex index;
    index.build(f.keys.data(), f.levels.data(), f.keys.size());
    EXPECT_GT(index.last_build_probes(), 0u);

    const auto ref = reference_slots(codes, f);
    ASSERT_EQ(ref.size(), codes.size() * amr::kFaceCount);
    for (std::size_t s = 0; s < ref.size(); ++s) {
      ASSERT_EQ(index.slots()[s], ref[s])
          << "seed " << seed << " leaf " << s / amr::kFaceCount << " face "
          << s % amr::kFaceCount;
    }
  }
}

TEST(NeighborIndex, MatchesPerFaceFindAtLevelExtremes) {
  const auto codes = corner_path_leafset();
  const Fields f = make_fields(codes, 17);
  amr::FaceNeighborIndex index;
  index.build(f.keys.data(), f.levels.data(), f.keys.size());
  const auto ref = reference_slots(codes, f);
  for (std::size_t s = 0; s < ref.size(); ++s) {
    ASSERT_EQ(index.slots()[s], ref[s])
        << "leaf " << s / amr::kFaceCount << " face "
        << s % amr::kFaceCount;
  }
}

TEST(NeighborIndex, StampAndInvalidateGovernReuse) {
  const auto codes = random_leafset(4, 3, 0.5);
  const Fields f = make_fields(codes, 4);
  amr::FaceNeighborIndex index;
  EXPECT_FALSE(index.valid_for(7, f.keys.size()));
  index.build(f.keys.data(), f.levels.data(), f.keys.size());
  index.stamp(7, f.keys.size());
  EXPECT_TRUE(index.valid_for(7, f.keys.size()));
  EXPECT_FALSE(index.valid_for(8, f.keys.size()));       // version moved
  EXPECT_FALSE(index.valid_for(7, f.keys.size() + 1));   // leaf count moved
  index.invalidate();
  EXPECT_FALSE(index.valid_for(7, f.keys.size()));
}

}  // namespace
}  // namespace pmo
