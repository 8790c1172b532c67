// Unit + property tests for Morton encoding and locational codes.
#include "common/morton.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <vector>

#include "common/rng.hpp"

namespace pmo {
namespace {

TEST(Morton, Split3RoundTrips) {
  for (std::uint32_t x : {0u, 1u, 2u, 0x155555u, 0x1fffffu, 12345u}) {
    EXPECT_EQ(morton_compact3(morton_split3(x)), x);
  }
}

TEST(Morton, EncodeDecodeRoundTrips) {
  Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    const auto x = static_cast<std::uint32_t>(rng.below(1u << 21));
    const auto y = static_cast<std::uint32_t>(rng.below(1u << 21));
    const auto z = static_cast<std::uint32_t>(rng.below(1u << 21));
    const auto d = morton_decode3(morton_encode3(x, y, z));
    EXPECT_EQ(d[0], x);
    EXPECT_EQ(d[1], y);
    EXPECT_EQ(d[2], z);
  }
}

TEST(Morton, EncodeInterleavesBits) {
  EXPECT_EQ(morton_encode3(1, 0, 0), 1u);
  EXPECT_EQ(morton_encode3(0, 1, 0), 2u);
  EXPECT_EQ(morton_encode3(0, 0, 1), 4u);
  EXPECT_EQ(morton_encode3(1, 1, 1), 7u);
  EXPECT_EQ(morton_encode3(2, 0, 0), 8u);
}

// Differential test holding the dispatching fast path (PDEP/PEXT on BMI2
// builds, the portable magic-bits fallback elsewhere) bit-identical to
// the constexpr reference on edge cases and a large random sample.
TEST(Morton, FastPathMatchesPortableEncodeDecode) {
  const std::uint32_t edge[] = {0u,       1u,          2u,      0x155555u,
                                0x0aaaaau, 0x1fffffu,  0x100000u, 12345u};
  for (const auto x : edge) {
    for (const auto y : edge) {
      for (const auto z : edge) {
        const auto k = morton_encode3(x, y, z);
        EXPECT_EQ(morton_encode3_fast(x, y, z), k);
        EXPECT_EQ(morton_decode3_fast(k), morton_decode3(k));
      }
    }
  }
  Rng rng(20260806);
  for (int i = 0; i < 20000; ++i) {
    const auto x = static_cast<std::uint32_t>(rng.below(1u << 21));
    const auto y = static_cast<std::uint32_t>(rng.below(1u << 21));
    const auto z = static_cast<std::uint32_t>(rng.below(1u << 21));
    const auto k = morton_encode3(x, y, z);
    ASSERT_EQ(morton_encode3_fast(x, y, z), k);
    const auto d = morton_decode3_fast(k);
    ASSERT_EQ(d[0], x);
    ASSERT_EQ(d[1], y);
    ASSERT_EQ(d[2], z);
  }
  // Decode must also agree on keys that are not canonical anchors (bits
  // above 3*kMaxLevel clear, arbitrary otherwise).
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t k =
        (static_cast<std::uint64_t>(rng.below(0xffffffffu)) << 32 |
         rng.below(0xffffffffu)) &
        ((std::uint64_t{1} << 60) - 1);
    ASSERT_EQ(morton_decode3_fast(k), morton_decode3(k));
  }
}

// The batched kernels must be bit-identical to the scalar fast path (and
// therefore to the constexpr reference) for every batch size around the
// unroll seams, including n = 0 and odd tails, on both the BMI2 and
// portable builds.
TEST(Morton, BatchEncodeDecodeMatchesScalar) {
  Rng rng(20260808);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{8}, std::size_t{9}, std::size_t{63},
                              std::size_t{64}, std::size_t{257}}) {
    std::vector<std::uint32_t> x(n), y(n), z(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = static_cast<std::uint32_t>(rng.below(1u << 21));
      y[i] = static_cast<std::uint32_t>(rng.below(1u << 21));
      z[i] = static_cast<std::uint32_t>(rng.below(1u << 21));
    }
    std::vector<std::uint64_t> codes(n);
    morton_encode3_batch(x.data(), y.data(), z.data(), codes.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(codes[i], morton_encode3(x[i], y[i], z[i])) << "n=" << n;
    std::vector<std::uint32_t> dx(n), dy(n), dz(n);
    morton_decode3_batch(codes.data(), dx.data(), dy.data(), dz.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(dx[i], x[i]);
      ASSERT_EQ(dy[i], y[i]);
      ASSERT_EQ(dz[i], z[i]);
    }
  }
}

// Coordinate extremes at every level boundary: all-zeros, all-ones, and
// single-axis maxima stress the interleave carry patterns the random
// sample can miss.
TEST(Morton, BatchHandlesLevelBoundaryExtremes) {
  std::vector<std::uint32_t> x, y, z;
  for (int level = 0; level <= 21; ++level) {
    const std::uint32_t m =
        level == 0 ? 0u : ((std::uint32_t{1} << level) - 1);
    x.push_back(m), y.push_back(0), z.push_back(0);
    x.push_back(0), y.push_back(m), z.push_back(0);
    x.push_back(0), y.push_back(0), z.push_back(m);
    x.push_back(m), y.push_back(m), z.push_back(m);
  }
  const std::size_t n = x.size();
  std::vector<std::uint64_t> codes(n);
  morton_encode3_batch(x.data(), y.data(), z.data(), codes.data(), n);
  std::vector<std::uint32_t> dx(n), dy(n), dz(n);
  morton_decode3_batch(codes.data(), dx.data(), dy.data(), dz.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(codes[i], morton_encode3(x[i], y[i], z[i]));
    ASSERT_EQ(dx[i], x[i]);
    ASSERT_EQ(dy[i], y[i]);
    ASSERT_EQ(dz[i], z[i]);
  }
}

// The seam itself: whichever side morton_bmi2_enabled() reports, the
// batch output must equal the scalar *portable* reference — so a BMI2
// binary and a portable binary produce identical persisted keys.
TEST(Morton, BatchIsSeamIndependent) {
  (void)morton_bmi2_enabled();  // both branches share this contract
  Rng rng(7);
  constexpr std::size_t n = 4096;
  std::vector<std::uint32_t> x(n), y(n), z(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<std::uint32_t>(rng.below(1u << 21));
    y[i] = static_cast<std::uint32_t>(rng.below(1u << 21));
    z[i] = static_cast<std::uint32_t>(rng.below(1u << 21));
  }
  std::vector<std::uint64_t> codes(n);
  morton_encode3_batch(x.data(), y.data(), z.data(), codes.data(), n);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(codes[i], morton_encode3(x[i], y[i], z[i]));
}

TEST(LocCode, RootProperties) {
  const auto root = LocCode::root();
  EXPECT_EQ(root.level(), 0);
  EXPECT_EQ(root.key(), 0u);
  EXPECT_TRUE(root.is_root());
  EXPECT_EQ(root.extent(), 1u << kMaxLevel);
  EXPECT_DOUBLE_EQ(root.size_unit(), 1.0);
}

TEST(LocCode, ChildParentRoundTrip) {
  const auto root = LocCode::root();
  for (int i = 0; i < kChildrenPerNode; ++i) {
    const auto c = root.child(i);
    EXPECT_EQ(c.level(), 1);
    EXPECT_EQ(c.child_index(), i);
    EXPECT_EQ(c.parent(), root);
  }
}

TEST(LocCode, DeepChildChainRoundTrips) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    LocCode code = LocCode::root();
    std::vector<int> indices;
    const int depth = static_cast<int>(rng.below(kMaxLevel)) + 1;
    for (int l = 0; l < depth; ++l) {
      const int idx = static_cast<int>(rng.below(kChildrenPerNode));
      indices.push_back(idx);
      code = code.child(idx);
    }
    EXPECT_EQ(code.level(), depth);
    // Walk back up, checking each child index.
    for (int l = depth - 1; l >= 0; --l) {
      EXPECT_EQ(code.child_index(), indices[static_cast<std::size_t>(l)]);
      code = code.parent();
    }
    EXPECT_EQ(code, LocCode::root());
  }
}

TEST(LocCode, WordRoundTripsAtEveryLevel) {
  static_assert(LocCode::root().word() == 1);
  static_assert(LocCode::from_word(1) == LocCode::root());
  Rng rng(11);
  for (int level = 0; level <= kMaxLevel; ++level) {
    const std::uint32_t top = (std::uint32_t{1} << level) - 1;
    std::vector<LocCode> codes = {LocCode::from_grid(level, 0, 0, 0),
                                  LocCode::from_grid(level, top, top, top)};
    for (int i = 0; i < 50; ++i) {
      codes.push_back(LocCode::from_grid(
          level, static_cast<std::uint32_t>(rng.below(top + 1ull)),
          static_cast<std::uint32_t>(rng.below(top + 1ull)),
          static_cast<std::uint32_t>(rng.below(top + 1ull))));
    }
    for (const LocCode& c : codes) {
      const std::uint64_t w = c.word();
      EXPECT_EQ(std::bit_width(w), 3 * level + 1) << c.to_string();
      EXPECT_EQ(LocCode::from_word(w), c) << c.to_string();
    }
  }
  // The all-ones anchor at kMaxLevel fills all 61 bits.
  const std::uint32_t max = (std::uint32_t{1} << kMaxLevel) - 1;
  EXPECT_EQ(LocCode::from_grid(kMaxLevel, max, max, max).word(),
            (std::uint64_t{1} << 61) - 1);
}

TEST(LocCode, WordArithmeticMatchesChildAndParent) {
  Rng rng(12);
  for (int trial = 0; trial < 200; ++trial) {
    LocCode code = LocCode::root();
    const int depth = static_cast<int>(rng.below(kMaxLevel + 1));
    for (int l = 0; l < depth; ++l)
      code = code.child(static_cast<int>(rng.below(kChildrenPerNode)));
    const std::uint64_t w = code.word();
    if (code.level() < kMaxLevel) {
      for (int i = 0; i < kChildrenPerNode; ++i) {
        EXPECT_EQ((w << 3) | static_cast<std::uint64_t>(i),
                  code.child(i).word());
      }
    }
    if (code.level() > 0) {
      EXPECT_EQ(w >> 3, code.parent().word());
    }
  }
}

TEST(LocCode, FromGridMatchesChildConstruction) {
  // child 0 is (0,0,0), child 7 is (1,1,1) in each octant split.
  const auto a = LocCode::root().child(7).child(0);
  const auto b = LocCode::from_grid(2, 2, 2, 2);
  EXPECT_EQ(a, b);
}

TEST(LocCode, FromGridRejectsOutOfRange) {
  EXPECT_THROW(LocCode::from_grid(1, 2, 0, 0), ContractError);
  EXPECT_THROW(LocCode::from_grid(kMaxLevel + 1, 0, 0, 0), ContractError);
}

TEST(LocCode, AncestorAt) {
  const auto code = LocCode::from_grid(4, 5, 9, 14);
  EXPECT_EQ(code.ancestor_at(4), code);
  EXPECT_EQ(code.ancestor_at(0), LocCode::root());
  const auto a2 = code.ancestor_at(2);
  EXPECT_EQ(a2.level(), 2);
  EXPECT_TRUE(a2.contains(code));
}

TEST(LocCode, ContainmentProperties) {
  const auto outer = LocCode::from_grid(2, 1, 1, 1);
  const auto inner = LocCode::from_grid(4, 5, 6, 7);
  EXPECT_TRUE(outer.contains(inner));
  EXPECT_FALSE(inner.contains(outer));
  EXPECT_TRUE(outer.contains(outer));
  const auto sibling = LocCode::from_grid(2, 0, 1, 1);
  EXPECT_FALSE(sibling.contains(inner));
}

TEST(LocCode, NeighborBasic) {
  const auto code = LocCode::from_grid(3, 3, 3, 3);
  LocCode n;
  ASSERT_TRUE(code.neighbor(1, 0, 0, n));
  const auto g = n.grid_anchor();
  EXPECT_EQ(g.x, 4u);
  EXPECT_EQ(g.y, 3u);
  EXPECT_EQ(g.z, 3u);
}

TEST(LocCode, NeighborAtBoundaryFails) {
  const auto corner = LocCode::from_grid(3, 0, 0, 0);
  LocCode n;
  EXPECT_FALSE(corner.neighbor(-1, 0, 0, n));
  EXPECT_FALSE(corner.neighbor(0, -1, 0, n));
  EXPECT_FALSE(corner.neighbor(0, 0, -1, n));
  EXPECT_TRUE(corner.neighbor(1, 1, 1, n));
  const auto far = LocCode::from_grid(3, 7, 7, 7);
  EXPECT_FALSE(far.neighbor(1, 0, 0, n));
}

TEST(LocCode, NeighborIsSymmetric) {
  Rng rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    const int level = static_cast<int>(rng.below(kMaxLevel)) + 1;
    const std::uint32_t side = 1u << level;
    const auto code = LocCode::from_grid(
        level, static_cast<std::uint32_t>(rng.below(side)),
        static_cast<std::uint32_t>(rng.below(side)),
        static_cast<std::uint32_t>(rng.below(side)));
    for (const auto& d : LocCode::neighbor_directions()) {
      LocCode n;
      if (!code.neighbor(d[0], d[1], d[2], n)) continue;
      LocCode back;
      ASSERT_TRUE(n.neighbor(-d[0], -d[1], -d[2], back));
      EXPECT_EQ(back, code);
    }
  }
}

TEST(LocCode, NeighborDirectionsCover26) {
  const auto& dirs = LocCode::neighbor_directions();
  std::set<std::array<int, 3>> unique(dirs.begin(), dirs.end());
  EXPECT_EQ(unique.size(), 26u);
  EXPECT_EQ(unique.count({0, 0, 0}), 0u);
}

TEST(LocCode, OrderingIsMortonDepthFirst) {
  // Siblings order by child index; a parent precedes its descendants.
  const auto p = LocCode::root().child(3);
  EXPECT_LT(p, p.child(0));
  EXPECT_LT(p.child(0), p.child(1));
  EXPECT_LT(p.child(7), LocCode::root().child(4));
}

TEST(LocCode, SortedLeavesFollowSfc) {
  // All level-2 cells sorted by LocCode must equal Morton order of anchors.
  std::vector<LocCode> cells;
  for (std::uint32_t z = 0; z < 4; ++z)
    for (std::uint32_t y = 0; y < 4; ++y)
      for (std::uint32_t x = 0; x < 4; ++x)
        cells.push_back(LocCode::from_grid(2, x, y, z));
  std::sort(cells.begin(), cells.end());
  for (std::size_t i = 1; i < cells.size(); ++i) {
    const auto a = cells[i - 1].grid_anchor();
    const auto b = cells[i].grid_anchor();
    EXPECT_LT(morton_encode3(a.x, a.y, a.z), morton_encode3(b.x, b.y, b.z));
  }
}

TEST(LocCode, CenterUnitInsideOwnCell) {
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const int level = static_cast<int>(rng.below(10)) + 1;
    const std::uint32_t side = 1u << level;
    const auto g = std::array<std::uint32_t, 3>{
        static_cast<std::uint32_t>(rng.below(side)),
        static_cast<std::uint32_t>(rng.below(side)),
        static_cast<std::uint32_t>(rng.below(side))};
    const auto code = LocCode::from_grid(level, g[0], g[1], g[2]);
    const auto c = code.center_unit();
    const double h = code.size_unit();
    EXPECT_NEAR(c[0], (g[0] + 0.5) * h, 1e-12);
    EXPECT_NEAR(c[1], (g[1] + 0.5) * h, 1e-12);
    EXPECT_NEAR(c[2], (g[2] + 0.5) * h, 1e-12);
  }
}

TEST(LocCode, HashHasNoTrivialCollisionsAcrossLevels) {
  LocCodeHash hash;
  std::set<std::size_t> seen;
  std::size_t count = 0;
  for (int level = 0; level <= 4; ++level) {
    const std::uint32_t side = 1u << level;
    for (std::uint32_t z = 0; z < side; ++z)
      for (std::uint32_t y = 0; y < side; ++y)
        for (std::uint32_t x = 0; x < side; ++x) {
          seen.insert(hash(LocCode::from_grid(level, x, y, z)));
          ++count;
        }
  }
  // Perfect hashing is not required, but collisions should be rare.
  EXPECT_GE(seen.size(), count - 2);
}

}  // namespace
}  // namespace pmo
