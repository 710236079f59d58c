// BoxIndex must be observably identical to the brute-force scan it
// replaces: same (id, overlap) pairs, same order, for any geometry. These
// tests pin the edge cases and prove equivalence under a randomized sweep.
#include "ndarray/index.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "ndarray/ndarray.h"

namespace imc::nda {
namespace {

using Hits = std::vector<std::pair<int, Box>>;

// Reference semantics: nda::intersecting over the same boxes.
Hits brute(const std::vector<Box>& boxes, const Box& target) {
  return intersecting(boxes, target);
}

TEST(BoxIndex, EmptyIndexReturnsNothing) {
  BoxIndex index;
  EXPECT_TRUE(index.empty());
  EXPECT_TRUE(index.query(Box({0}, {10})).empty());
}

TEST(BoxIndex, TouchingFacesAreDisjoint) {
  // Half-open boxes sharing a face must not report an intersection. Use
  // enough entries to engage the grid rather than the small-set brute path.
  std::vector<Box> boxes;
  for (std::uint64_t i = 0; i < 32; ++i) {
    boxes.push_back(Box({8 * i, 0}, {8 * (i + 1), 8}));
  }
  BoxIndex index = BoxIndex::build(boxes);
  // Query exactly covering box 5: neighbours 4 and 6 touch its faces.
  const Box target({40, 0}, {48, 8});
  Hits hits = index.query(target);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].first, 5);
  EXPECT_EQ(hits[0].second, target);
  EXPECT_EQ(hits, brute(boxes, target));
}

TEST(BoxIndex, ZeroVolumeBoxesNeverMatch) {
  std::vector<Box> boxes;
  for (std::uint64_t i = 0; i < 20; ++i) {
    boxes.push_back(Box({i, 0}, {i + 1, 4}));
  }
  boxes.push_back(Box({3, 2}, {3, 2}));  // zero-volume entry
  BoxIndex index = BoxIndex::build(boxes);

  const Box covering({0, 0}, {20, 4});
  EXPECT_EQ(index.query(covering), brute(boxes, covering));

  const Box degenerate({5, 1}, {5, 1});  // zero-volume query
  EXPECT_TRUE(index.query(degenerate).empty());
  EXPECT_EQ(index.query(degenerate), brute(boxes, degenerate));
}

TEST(BoxIndex, SingleCellBoxes) {
  std::vector<Box> boxes;
  for (std::uint64_t x = 0; x < 8; ++x) {
    for (std::uint64_t y = 0; y < 8; ++y) {
      boxes.push_back(Box({x, y}, {x + 1, y + 1}));
    }
  }
  BoxIndex index = BoxIndex::build(boxes);
  const Box cell({3, 5}, {4, 6});
  Hits hits = index.query(cell);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].first, 3 * 8 + 5);
  EXPECT_EQ(index.query(Box({2, 2}, {5, 5})), brute(boxes, Box({2, 2}, {5, 5})));
}

TEST(BoxIndex, QueryContainingUniverseReturnsAllInOrder) {
  std::vector<Box> boxes = decompose_grid({64, 64}, {8, 8});
  BoxIndex index = BoxIndex::build(boxes);
  // Far larger than the indexed bounds: exercises the huge-query fallback.
  const Box universe({0, 0}, {1u << 20, 1u << 20});
  Hits hits = index.query(universe);
  ASSERT_EQ(hits.size(), boxes.size());
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].first, static_cast<int>(i));
    EXPECT_EQ(hits[i].second, boxes[i]);
  }
}

TEST(BoxIndex, MismatchedDimensionEntriesAndQueries) {
  std::vector<Box> boxes = decompose_1d({100}, 20, 0);  // 1-D entries
  boxes.push_back(Box({0, 0}, {10, 10}));               // stray 2-D entry
  BoxIndex index = BoxIndex::build(boxes);

  const Box q1({15}, {35});
  EXPECT_EQ(index.query(q1), brute(boxes, q1));
  const Box q2({0, 0}, {5, 5});  // 2-D query only matches the 2-D entry
  EXPECT_EQ(index.query(q2), brute(boxes, q2));
}

TEST(BoxIndex, IncrementalInsertsMatchBruteForce) {
  std::vector<Box> boxes = decompose_grid({128, 128}, {8, 8});
  BoxIndex index;
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    index.insert(static_cast<int>(i), boxes[i]);
  }
  const Box warm({10, 10}, {50, 50});
  EXPECT_EQ(index.query(warm), brute(boxes, warm));  // builds the grid

  // Inserts after the grid is built: some inside the bounds, one outside.
  boxes.push_back(Box({30, 30}, {40, 40}));
  index.insert(static_cast<int>(boxes.size()) - 1, boxes.back());
  EXPECT_EQ(index.query(warm), brute(boxes, warm));

  boxes.push_back(Box({200, 200}, {300, 300}));  // outside built bounds
  index.insert(static_cast<int>(boxes.size()) - 1, boxes.back());
  const Box wide({0, 0}, {512, 512});
  EXPECT_EQ(index.query(wide), brute(boxes, wide));
  const Box outside({250, 250}, {260, 260});
  EXPECT_EQ(index.query(outside), brute(boxes, outside));
}

TEST(BoxIndex, StagingRegionDecomposition) {
  // The shape the DataSpaces client actually queries: a 1-D cut of a 3-D
  // domain along its longest dimension.
  std::vector<Box> regions = decompose_1d({1024, 64, 64}, 64, 0);
  BoxIndex index = BoxIndex::build(regions);
  for (std::uint64_t lo = 0; lo < 1024; lo += 97) {
    const Box slab({lo, 0, 0}, {std::min<std::uint64_t>(lo + 128, 1024), 64, 64});
    EXPECT_EQ(index.query(slab), brute(regions, slab));
  }
}

TEST(BoxIndex, MaxRankBoxesSpanningSeveralCellsPerDimension) {
  // 4-D (Dims::kMaxRank) boxes of mixed size: the average extent sets the
  // cell size, so the larger boxes cover 2-3 cells in every dimension (some
  // past the coarse limit) and the row-major key walk carries across all
  // four dimensions.
  static_assert(Dims::kMaxRank == 4);
  Rng rng(0x4d4b0c5ull);
  std::vector<Box> boxes;
  auto random_box = [&](std::uint64_t max_span) {
    Dims lb(4), ub(4);
    for (std::size_t d = 0; d < 4; ++d) {
      lb[d] = rng.next_below(56);
      ub[d] = std::min<std::uint64_t>(lb[d] + 1 + rng.next_below(max_span), 64);
    }
    return Box(lb, ub);
  };
  for (int i = 0; i < 200; ++i) boxes.push_back(random_box(i % 4 == 0 ? 14 : 6));
  const BoxIndex index = BoxIndex::build(boxes);
  for (int q = 0; q < 64; ++q) {
    const Box target = random_box(q % 8 == 0 ? 40 : 16);
    EXPECT_EQ(index.query(target), brute(boxes, target))
        << "q=" << q << " target=" << target.to_string();
  }
  const Box universe = Box::whole({64, 64, 64, 64});
  EXPECT_EQ(index.query(universe), brute(boxes, universe));
}

TEST(BoxIndex, InsertsAfterBuildGrowTheBucketTable) {
  // 20 aligned 4x4 boxes (the corners fix the bounds to 256x256) build a
  // 64x64-cell grid with about 20 occupied cells, sized for them. The next
  // 20 inserts stay within twice the built count and inside the bounds, so
  // each folds into the built grid — and each unaligned 8x8 box touches up
  // to 9 new cells, several times what the table was sized for.
  std::vector<Box> boxes;
  for (std::uint64_t corner : {0ull, 252ull}) {
    boxes.push_back(Box({corner, 0}, {corner + 4, 4}));
    boxes.push_back(Box({corner, 252}, {corner + 4, 256}));
  }
  for (std::uint64_t i = 0; i < 16; ++i) {
    boxes.push_back(Box({16 + 12 * i, 8 * i}, {20 + 12 * i, 8 * i + 4}));
  }
  BoxIndex index;
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    index.insert(static_cast<int>(i), boxes[i]);
  }
  const Box probe({0, 0}, {64, 64});
  EXPECT_EQ(index.query(probe), brute(boxes, probe));  // builds the grid
  for (std::uint64_t i = 0; i < 20; ++i) {
    const std::uint64_t x = 6 + 11 * i;
    const std::uint64_t y = 250 - 12 * i;
    boxes.push_back(Box({x, y - 8}, {x + 8, y}));
    index.insert(static_cast<int>(boxes.size()) - 1, boxes.back());
    const Box target({x > 10 ? x - 10 : 0, y - 20}, {x + 10, y + 4});
    EXPECT_EQ(index.query(target), brute(boxes, target)) << "insert " << i;
  }
  for (std::uint64_t lo = 0; lo < 256; lo += 32) {
    const Box band({lo, 0}, {lo + 40 > 256 ? 256 : lo + 40, 256});
    EXPECT_EQ(index.query(band), brute(boxes, band)) << "band " << lo;
  }
}

// Randomized equivalence sweep: random boxes (including degenerate ones),
// random queries, 1-D through 3-D, checked element-for-element against the
// brute-force scan. Seeded per lint rules — fully reproducible.
TEST(BoxIndex, RandomizedAgreesWithBruteForce) {
  Rng rng(0x5eed0fbeefull);
  for (int dims = 1; dims <= 3; ++dims) {
    for (int round = 0; round < 8; ++round) {
      const std::uint64_t extent = 32 + rng.next_below(512);
      const std::size_t count = 4 + rng.next_below(160);
      std::vector<Box> boxes;
      BoxIndex index;
      auto random_box = [&] {
        Dims lb(static_cast<std::size_t>(dims));
        Dims ub(static_cast<std::size_t>(dims));
        for (int d = 0; d < dims; ++d) {
          const std::uint64_t a = rng.next_below(extent);
          // Mostly small boxes, occasionally huge or zero-volume ones.
          const std::uint64_t span =
              rng.next_below(8) == 0 ? rng.next_below(extent) : rng.next_below(12);
          lb[static_cast<std::size_t>(d)] = a;
          ub[static_cast<std::size_t>(d)] = std::min(a + span, extent);
        }
        return Box(lb, ub);
      };
      for (std::size_t i = 0; i < count; ++i) {
        boxes.push_back(random_box());
        index.insert(static_cast<int>(i), boxes.back());
      }
      for (int q = 0; q < 24; ++q) {
        const Box target = random_box();
        EXPECT_EQ(index.query(target), brute(boxes, target))
            << "dims=" << dims << " round=" << round << " q=" << q
            << " target=" << target.to_string();
      }
      // Interleave more inserts with queries on the warm index.
      for (int extra = 0; extra < 16; ++extra) {
        boxes.push_back(random_box());
        index.insert(static_cast<int>(boxes.size()) - 1, boxes.back());
        const Box target = random_box();
        EXPECT_EQ(index.query(target), brute(boxes, target))
            << "dims=" << dims << " round=" << round << " extra=" << extra;
      }
    }
  }
}

}  // namespace
}  // namespace imc::nda
