#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <compare>
#include <numeric>
#include <set>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "ndarray/ndarray.h"

namespace imc::nda {
namespace {

// Dims are inline, so copying a Box never allocates.
static_assert(std::is_trivially_copyable_v<Box>);

// The tiled form keeps its period in the shared buffer, not in the slab:
// every staged piece stays as small as a dense or synthetic one.
static_assert(sizeof(Slab) == 112);

// Dims keys ordered containers (the staging-region cache), so its equality
// and ordering must be std::vector's.
TEST(Dims, EqualityAndOrderingMatchStdVector) {
  Rng rng(0xd1a5ull);
  auto random_dims = [&] {
    Dims d;
    const std::uint64_t rank = rng.next_below(Dims::kMaxRank + 1);
    // Few distinct values, so equal and prefix pairs are common.
    for (std::uint64_t i = 0; i < rank; ++i) d.push_back(rng.next_below(3));
    return d;
  };
  for (int i = 0; i < 4000; ++i) {
    const Dims a = random_dims();
    const Dims b = random_dims();
    const std::vector<std::uint64_t> va(a.begin(), a.end());
    const std::vector<std::uint64_t> vb(b.begin(), b.end());
    ASSERT_EQ(a.size(), va.size());
    EXPECT_EQ(a == b, va == vb);
    EXPECT_EQ(a < b, va < vb);
    EXPECT_EQ(a <=> b, va <=> vb);
  }
}

TEST(Dims, GrowingPastMaxRankThrows) {
  Dims d(Dims::kMaxRank, 7);
  EXPECT_THROW(d.push_back(1), std::length_error);
  EXPECT_THROW(d.resize(Dims::kMaxRank + 1), std::length_error);
  EXPECT_EQ(d, Dims(Dims::kMaxRank, 7));  // a failed call changes nothing
  EXPECT_THROW(Dims(Dims::kMaxRank + 1), std::length_error);
  EXPECT_THROW((Dims{1, 2, 3, 4, 5}), std::length_error);
}

TEST(Dims, ShrinkThenGrowRefills) {
  Dims d = {4, 5, 6};
  d.resize(1);
  EXPECT_EQ(d, (Dims{4}));
  d.resize(3, 9);
  EXPECT_EQ(d, (Dims{4, 9, 9}));
  d.assign(2, 0);
  EXPECT_EQ(d, (Dims{0, 0}));
}

TEST(Box, VolumeAndExtent) {
  Box b({0, 10}, {5, 30});
  EXPECT_EQ(b.dims(), 2);
  EXPECT_EQ(b.extent(0), 5u);
  EXPECT_EQ(b.extent(1), 20u);
  EXPECT_EQ(b.volume(), 100u);
  EXPECT_FALSE(b.empty());
}

TEST(Box, WholeCoversGlobal) {
  Box b = Box::whole({5, 512, 1000});
  EXPECT_EQ(b.lb, (Dims{0, 0, 0}));
  EXPECT_EQ(b.ub, (Dims{5, 512, 1000}));
  EXPECT_EQ(b.volume(), 5u * 512 * 1000);
}

TEST(Box, EmptyBox) {
  Box b({3, 3}, {3, 10});
  EXPECT_TRUE(b.empty());
  Box zero;
  EXPECT_TRUE(zero.empty());
}

TEST(Box, Contains) {
  Box outer({0, 0}, {10, 10});
  EXPECT_TRUE(outer.contains(Box({2, 3}, {4, 7})));
  EXPECT_TRUE(outer.contains(outer));
  EXPECT_FALSE(outer.contains(Box({2, 3}, {4, 11})));
  EXPECT_FALSE(outer.contains_point({10, 0}));  // half-open
  EXPECT_TRUE(outer.contains_point({9, 9}));
}

TEST(Box, Intersection) {
  Box a({0, 0}, {10, 10});
  Box b({5, 5}, {15, 15});
  auto i = intersect(a, b);
  ASSERT_TRUE(i.has_value());
  EXPECT_EQ(*i, Box({5, 5}, {10, 10}));
}

TEST(Box, DisjointIntersectionIsEmpty) {
  EXPECT_FALSE(intersect(Box({0}, {5}), Box({5}, {10})).has_value());
  EXPECT_FALSE(intersect(Box({0, 0}, {5, 5}), Box({0, 7}, {5, 9})));
}

TEST(Box, ToStringIsReadable) {
  EXPECT_EQ(Box({0, 10}, {5, 30}).to_string(), "[0..5, 10..30)");
}

TEST(Dims32Bit, DetectsOverflow) {
  // Table IV: dimension sizes stored as 32-bit unsigned overflow.
  EXPECT_TRUE(check_dims_32bit({5, 32, 512000}).is_ok());
  EXPECT_EQ(check_dims_32bit({5ull << 32}).code(),
            ErrorCode::kDimensionOverflow);
  // The LAMMPS output geometry at (8192, 4096) scale really does overflow
  // 32-bit element counts — exactly the crash the paper reports.
  EXPECT_EQ(check_dims_32bit({5, 8192, 512000}).code(),
            ErrorCode::kDimensionOverflow);
  // 4096 * 1048576 * 4096 elements overflows 32-bit element counts.
  EXPECT_EQ(check_dims_32bit({4096, 1048576, 4096}).code(),
            ErrorCode::kDimensionOverflow);
}

TEST(Decompose1D, EvenSplit) {
  auto boxes = decompose_1d({4, 100}, 4, 1);
  ASSERT_EQ(boxes.size(), 4u);
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(boxes[p].lb[1], static_cast<std::uint64_t>(25 * p));
    EXPECT_EQ(boxes[p].extent(1), 25u);
    EXPECT_EQ(boxes[p].extent(0), 4u);  // full other dimension
  }
}

TEST(Decompose1D, RemainderSpreadOverFirstBlocks) {
  auto boxes = decompose_1d({10}, 3, 0);
  EXPECT_EQ(boxes[0].extent(0), 4u);
  EXPECT_EQ(boxes[1].extent(0), 3u);
  EXPECT_EQ(boxes[2].extent(0), 3u);
  // Partition property: contiguous and covering.
  EXPECT_EQ(boxes[0].ub[0], boxes[1].lb[0]);
  EXPECT_EQ(boxes[1].ub[0], boxes[2].lb[0]);
  EXPECT_EQ(boxes[2].ub[0], 10u);
}

class DecomposePartition
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DecomposePartition, IsDisjointAndCovering) {
  const auto [parts, dim] = GetParam();
  const Dims global = {32, 48, 64};
  auto boxes = decompose_1d(global, parts, dim);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    total += boxes[i].volume();
    for (std::size_t j = i + 1; j < boxes.size(); ++j) {
      EXPECT_FALSE(intersect(boxes[i], boxes[j]).has_value());
    }
  }
  EXPECT_EQ(total, Box::whole(global).volume());
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, DecomposePartition,
    ::testing::Combine(::testing::Values(1, 2, 3, 7, 16),
                       ::testing::Values(0, 1, 2)));

TEST(DecomposeGrid, CartesianBlocks) {
  auto boxes = decompose_grid({4, 6}, {2, 3});
  ASSERT_EQ(boxes.size(), 6u);
  // Row-major: last dimension fastest.
  EXPECT_EQ(boxes[0], Box({0, 0}, {2, 2}));
  EXPECT_EQ(boxes[1], Box({0, 2}, {2, 4}));
  EXPECT_EQ(boxes[2], Box({0, 4}, {2, 6}));
  EXPECT_EQ(boxes[3], Box({2, 0}, {4, 2}));
  std::uint64_t total = 0;
  for (const auto& b : boxes) total += b.volume();
  EXPECT_EQ(total, 24u);
}

TEST(LongestDim, PicksMaxExtentLowestIndexOnTie) {
  EXPECT_EQ(longest_dim({5, 512, 512000}), 2);
  EXPECT_EQ(longest_dim({4096, 4096}), 0);
  EXPECT_EQ(longest_dim({7}), 0);
}

TEST(Intersecting, FindsAllOverlaps) {
  auto writers = decompose_1d({100}, 4, 0);  // [0,25) [25,50) [50,75) [75,100)
  auto hits = intersecting(writers, Box({20}, {60}));
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].first, 0);
  EXPECT_EQ(hits[0].second, Box({20}, {25}));
  EXPECT_EQ(hits[1].first, 1);
  EXPECT_EQ(hits[2].second, Box({50}, {60}));
}

TEST(VarDesc, TotalBytes) {
  VarDesc v{"atoms", {5, 32, 512000}, 0};
  EXPECT_EQ(v.total_bytes(), 5ull * 32 * 512000 * 8);
}

TEST(Slab, MaterializedRoundTrip) {
  Slab s = Slab::zeros(Box({0, 0}, {4, 4}));
  s.set({2, 3}, 7.5);
  EXPECT_DOUBLE_EQ(s.at({2, 3}), 7.5);
  EXPECT_DOUBLE_EQ(s.at({0, 0}), 0.0);
  EXPECT_EQ(s.declared_bytes(), 16u * 8);
}

TEST(Slab, MaterializedUsesRowMajorLayout) {
  std::vector<double> data = {0, 1, 2, 3, 4, 5};
  Slab s = Slab::materialized(Box({10, 20}, {12, 23}), std::move(data));
  EXPECT_DOUBLE_EQ(s.at({10, 20}), 0);
  EXPECT_DOUBLE_EQ(s.at({10, 22}), 2);
  EXPECT_DOUBLE_EQ(s.at({11, 20}), 3);
  EXPECT_DOUBLE_EQ(s.at({11, 22}), 5);
}

TEST(Slab, SyntheticIsDeterministicAndPositionDependent) {
  Slab a = Slab::synthetic(Box({0, 0}, {100, 100}), 42);
  Slab b = Slab::synthetic(Box({0, 0}, {100, 100}), 42);
  EXPECT_DOUBLE_EQ(a.at({3, 7}), b.at({3, 7}));
  EXPECT_NE(a.at({3, 7}), a.at({7, 3}));
  Slab c = Slab::synthetic(Box({0, 0}, {100, 100}), 43);
  EXPECT_NE(a.at({3, 7}), c.at({3, 7}));
}

TEST(Slab, SyntheticValuesBounded) {
  Slab s = Slab::synthetic(Box({0}, {1000}), 1);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const double v = s.at({i});
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Slab, ExtractOfSyntheticStaysSynthetic) {
  Slab s = Slab::synthetic(Box({0, 0}, {1 << 20, 1 << 20}), 9);
  Slab sub = s.extract(Box({5, 5}, {10, 10}));
  EXPECT_FALSE(sub.is_materialized());
  EXPECT_DOUBLE_EQ(sub.at({6, 7}), s.at({6, 7}));
}

TEST(Slab, ExtractOfMaterializedCopiesContent) {
  Slab s = Slab::zeros(Box({0, 0}, {8, 8}));
  s.set({3, 4}, 1.25);
  Slab sub = s.extract(Box({2, 2}, {6, 6}));
  EXPECT_TRUE(sub.is_materialized());
  EXPECT_DOUBLE_EQ(sub.at({3, 4}), 1.25);
  EXPECT_DOUBLE_EQ(sub.at({2, 2}), 0.0);
  // A part of the box gets a buffer of its own.
  EXPECT_EQ(std::as_const(sub).data().size(), 16u);
  EXPECT_NE(std::as_const(sub).data().data(), std::as_const(s).data().data());
}

TEST(Slab, FillFromCopiesOnlyOverlap) {
  Slab dst = Slab::zeros(Box({0}, {10}));
  Slab src = Slab::synthetic(Box({5}, {20}), 3);
  dst.fill_from(src);
  EXPECT_DOUBLE_EQ(dst.at({4}), 0.0);          // outside src
  EXPECT_DOUBLE_EQ(dst.at({5}), src.at({5}));  // overlap copied
  EXPECT_DOUBLE_EQ(dst.at({9}), src.at({9}));
}

TEST(Slab, ScatterGatherRoundTripAcrossDecompositions) {
  // Property: writing via one decomposition and reading via another must
  // reproduce the source exactly. This is the core staging correctness
  // invariant every library test relies on.
  const Dims global = {12, 18};
  Slab source = Slab::synthetic(Box::whole(global), 77);

  for (int writer_parts : {2, 3, 4}) {
    for (int reader_parts : {2, 3}) {
      auto writer_boxes = decompose_1d(global, writer_parts, 0);
      auto reader_boxes = decompose_1d(global, reader_parts, 1);
      // "Stage" writer slabs.
      std::vector<Slab> staged;
      for (const auto& wb : writer_boxes) staged.push_back(source.extract(wb));
      // Each reader assembles from intersecting staged slabs.
      Slab assembled = Slab::zeros(Box::whole(global));
      for (const auto& rb : reader_boxes) {
        Slab reader_slab = Slab::zeros(rb);
        for (const auto& st : staged) reader_slab.fill_from(st);
        assembled.fill_from(reader_slab);
      }
      EXPECT_DOUBLE_EQ(assembled.checksum(), source.checksum())
          << "writers=" << writer_parts << " readers=" << reader_parts;
    }
  }
}

TEST(Slab, ChecksumIsDecompositionInvariantButContentSensitive) {
  Slab a = Slab::synthetic(Box({0, 0}, {6, 6}), 5);
  Slab copy = Slab::zeros(Box({0, 0}, {6, 6}));
  copy.fill_from(a);
  EXPECT_DOUBLE_EQ(copy.checksum(), a.checksum());
  copy.set({1, 1}, copy.at({1, 1}) + 1.0);
  EXPECT_NE(copy.checksum(), a.checksum());
}

TEST(Slab, StridedFillMatchesPerElementCopy) {
  // The row-run copy kernels must be element-for-element identical to the
  // per-coordinate loop they replaced, for every rank and source kind.
  struct Case {
    Box dst, src;
  };
  const std::vector<Case> cases = {
      {Box({0}, {40}), Box({25}, {60})},
      {Box({0, 0}, {12, 17}), Box({5, 3}, {20, 11})},
      {Box({2, 2, 2}, {10, 9, 8}), Box({0, 4, 3}, {7, 12, 6})},
  };
  for (const auto& c : cases) {
    for (bool synthetic_src : {true, false}) {
      Slab src = synthetic_src
                     ? Slab::synthetic(c.src, 11)
                     : [&] {
                         Slab m = Slab::zeros(c.src);
                         m.fill_from(Slab::synthetic(c.src, 11));
                         return m;
                       }();
      Slab fast = Slab::zeros(c.dst);
      fast.fill_from(src);
      // Reference: element-wise walk of the destination box.
      auto overlap = intersect(c.dst, c.src);
      ASSERT_TRUE(overlap.has_value());
      Dims coord = c.dst.lb;
      for (;;) {
        const double expected =
            overlap->contains_point(coord) ? src.at(coord) : 0.0;
        EXPECT_DOUBLE_EQ(fast.at(coord), expected)
            << "synthetic=" << synthetic_src;
        std::size_t d = coord.size();
        bool done = true;
        for (; d-- > 0;) {
          if (++coord[d] < c.dst.ub[d]) {
            done = false;
            break;
          }
          coord[d] = c.dst.lb[d];
        }
        if (done) break;
      }
    }
  }
}

TEST(Slab, FullyContainedFillUsesWholeBuffer) {
  // dst == src == overlap: the single-copy fast path.
  const Box box({3, 3}, {9, 9});
  Slab src = Slab::zeros(box);
  src.set({5, 5}, 2.5);
  Slab dst = Slab::zeros(box);
  dst.fill_from(src);
  EXPECT_DOUBLE_EQ(dst.at({5, 5}), 2.5);
  EXPECT_DOUBLE_EQ(dst.checksum(), src.checksum());
  EXPECT_EQ(std::as_const(dst).data().data(), std::as_const(src).data().data());
}

TEST(Slab, ExtractWholeBoxEqualsCopy) {
  Slab src = Slab::zeros(Box({0, 0}, {5, 5}));
  src.set({4, 4}, -3.0);
  const Slab whole = src.extract(src.box());
  const Slab copy = src;
  for (const Slab* shared : {&whole, &copy}) {
    EXPECT_TRUE(shared->is_materialized());
    EXPECT_EQ(shared->box(), src.box());
    EXPECT_DOUBLE_EQ(shared->at({4, 4}), -3.0);
    EXPECT_DOUBLE_EQ(shared->checksum(), src.checksum());
    // Neither copies: both read the source's buffer.
    EXPECT_EQ(shared->data().data(), std::as_const(src).data().data());
  }
}

TEST(Slab, WritesToASharedBufferCloneIt) {
  void (*const writes[])(Slab&) = {
      [](Slab& s) { s.set({1, 2}, 9.0); },
      [](Slab& s) { s.fill_from(Slab::synthetic(Box({0, 0}, {2, 3}), 5)); },
      [](Slab& s) { s.data()[7] = 9.0; },
  };
  std::vector<double> values(16);
  std::iota(values.begin(), values.end(), 1.0);
  for (auto write : writes) {
    const Slab original = Slab::materialized(Box({0, 0}, {4, 4}), values);
    const double sum = original.checksum();
    for (bool whole_extract : {false, true}) {
      Slab copy = whole_extract ? original.extract(original.box()) : original;
      write(copy);
      EXPECT_NE(copy.checksum(), sum);  // the write landed in the copy
      EXPECT_NE(std::as_const(copy).data().data(), original.data().data());
      EXPECT_EQ(original.data(), values);
      EXPECT_EQ(original.checksum(), sum);
    }
  }
}

TEST(Slab, ChecksumMatchesDefinitionForBothKinds) {
  // Pin the checksum to its per-element definition so the rowwise
  // accumulation cannot drift (digest comparisons rely on bit equality).
  const Box box({1, 2, 3}, {4, 7, 9});
  Slab synth = Slab::synthetic(box, 123);
  Slab mat = Slab::zeros(box);
  mat.fill_from(synth);
  double expected = 0;
  for (std::uint64_t x = 1; x < 4; ++x) {
    for (std::uint64_t y = 2; y < 7; ++y) {
      for (std::uint64_t z = 3; z < 9; ++z) {
        std::uint64_t h = 0x9e3779b9;
        for (std::uint64_t c : {x, y, z}) h = splitmix64(h ^ c);
        expected += static_cast<double>(h >> 40) * synth.at({x, y, z});
      }
    }
  }
  EXPECT_DOUBLE_EQ(synth.checksum(), expected);
  EXPECT_DOUBLE_EQ(mat.checksum(), expected);
}

// The reader assembly every staging library performed before
// nda::assemble: a zero-filled slab with each piece copied in.
Slab zero_fill_assembly(const Box& box, const std::vector<Slab>& pieces) {
  Slab out = Slab::zeros(box);
  for (const auto& p : pieces) out.fill_from(p);
  return out;
}

// Calls fn on every coordinate of a non-empty box, row-major.
template <class Fn>
void for_each_coord(const Box& box, Fn fn) {
  Dims coord = box.lb;
  for (;;) {
    fn(coord);
    std::size_t d = coord.size();
    while (d-- > 0) {
      if (++coord[d] < box.ub[d]) break;
      coord[d] = box.lb[d];
    }
    if (d == static_cast<std::size_t>(-1)) return;
  }
}

void expect_same_content(const Slab& got, const Slab& want) {
  ASSERT_EQ(got.box(), want.box());
  EXPECT_EQ(got.checksum(), want.checksum());
  for_each_coord(want.box(), [&](const Dims& c) {
    ASSERT_EQ(got.at(c), want.at(c)) << ::testing::PrintToString(c);
  });
}

TEST(Assemble, OneSyntheticDefinitionStaysSynthetic) {
  // Writers split dimension 0, readers dimension 1: every reader box is
  // stitched from several extracts of one synthetic source.
  const Dims global = {12, 18};
  const Slab source = Slab::synthetic(Box::whole(global), 77);
  std::vector<Slab> staged;
  for (const auto& wb : decompose_1d(global, 4, 0)) {
    staged.push_back(source.extract(wb));
  }
  for (const auto& rb : decompose_1d(global, 3, 1)) {
    std::vector<Slab> pieces;
    for (const auto& st : staged) {
      if (auto overlap = intersect(st.box(), rb)) {
        pieces.push_back(st.extract(*overlap));
      }
    }
    const Slab got = assemble(rb, pieces, /*cap=*/1u << 20);
    EXPECT_FALSE(got.is_materialized());
    EXPECT_EQ(got.seed(), 77u);
    expect_same_content(got, zero_fill_assembly(rb, pieces));
  }
}

TEST(Assemble, PointerPiecesMayOverhangTheBox) {
  // The ADIOS MPI-IO read hands whole stored slabs, not overlaps.
  const Box box({2, 3}, {7, 11});
  const Slab left = Slab::synthetic(Box({0, 0}, {9, 6}), 5);
  const Slab right = Slab::synthetic(Box({0, 6}, {9, 20}), 5);
  const std::vector<const Slab*> hits = {&left, &right};
  const Slab got = assemble(box, hits, /*cap=*/1u << 20);
  EXPECT_FALSE(got.is_materialized());
  expect_same_content(got, zero_fill_assembly(box, {left, right}));
}

TEST(Assemble, MaterializesWhenAnyPieceIsMaterialized) {
  const Box box({0, 0}, {6, 10});
  const Slab source = Slab::synthetic(box, 9);
  Slab written = Slab::zeros(Box({0, 4}, {6, 7}));
  written.fill_from(source);
  const std::vector<Slab> pieces = {
      source.extract(Box({0, 0}, {6, 4})),
      written,
      // What a DataSpaces server hands back for a put aborted mid-flight.
      Slab::zeros(Box({0, 7}, {6, 10})),
  };
  const Slab got = assemble(box, pieces, /*cap=*/1u << 20);
  EXPECT_TRUE(got.is_materialized());
  expect_same_content(got, zero_fill_assembly(box, pieces));
  EXPECT_EQ(got.at({3, 8}), 0.0);
}

TEST(Assemble, MaterializesWhenSeedsDiffer) {
  const Box box({0, 0}, {4, 8});
  const std::vector<Slab> pieces = {
      Slab::synthetic(Box({0, 0}, {4, 5}), 1),
      Slab::synthetic(Box({0, 5}, {4, 8}), 2),
  };
  const Slab got = assemble(box, pieces, /*cap=*/1u << 20);
  EXPECT_TRUE(got.is_materialized());
  expect_same_content(got, zero_fill_assembly(box, pieces));
}

TEST(Assemble, StaysSyntheticAboveTheCap) {
  const Box box({0, 0}, {4, 8});
  const std::vector<Slab> mixed = {
      Slab::synthetic(Box({0, 0}, {4, 5}), 3),
      Slab::zeros(Box({0, 5}, {4, 8})),
  };
  const Slab got = assemble(box, mixed, /*cap=*/box.volume() - 1);
  EXPECT_FALSE(got.is_materialized());
  EXPECT_EQ(got.seed(), 3u);
  EXPECT_TRUE(assemble(box, mixed, box.volume()).is_materialized());

  const std::vector<Slab> one_seed = {Slab::synthetic(box, 4)};
  EXPECT_FALSE(assemble(box, one_seed, /*cap=*/1).is_materialized());
}

// ---------------------------------------------------------------------------
// The tiled form: element c is block[row-major(c mod period)].

// Boxes whose bounds and extents are not multiples of their periods.
struct TiledCase {
  Box box;
  Dims period;
};
const TiledCase kTiledCases[] = {
    {Box({3, 5}, {14, 12}), {4, 3}},
    {Box({1, 2, 7}, {6, 9, 20}), {2, 3, 5}},
};

// A block of distinct values, one per element of the period.
std::vector<double> block_for(const Dims& period) {
  std::uint64_t n = 1;
  for (std::uint64_t e : period) n *= e;
  std::vector<double> block(n);
  for (std::uint64_t k = 0; k < n; ++k) {
    block[k] = 0.25 + 1.5 * static_cast<double>(k);
  }
  return block;
}

// The definition, spelled out per element.
double tiled_definition(const std::vector<double>& block, const Dims& period,
                        const Dims& c) {
  std::uint64_t off = 0;
  for (std::size_t d = 0; d < c.size(); ++d) {
    off = off * period[d] + c[d] % period[d];
  }
  return block[off];
}

// A dense slab holding the definition over `box`, built per element.
Slab dense_definition(const Box& box, const std::vector<double>& block,
                      const Dims& period) {
  std::vector<double> values;
  for_each_coord(box, [&](const Dims& c) {
    values.push_back(tiled_definition(block, period, c));
  });
  return Slab::materialized(box, std::move(values));
}

TEST(TiledSlab, AtReadsTheBlockModuloThePeriod) {
  for (const auto& c : kTiledCases) {
    const std::vector<double> block = block_for(c.period);
    const Slab slab = Slab::tiled(c.box, c.period, block);
    EXPECT_TRUE(slab.is_materialized());
    EXPECT_TRUE(slab.is_tiled());
    EXPECT_EQ(slab.declared_bytes(), c.box.volume() * kElementBytes);
    for_each_coord(c.box, [&](const Dims& coord) {
      ASSERT_EQ(slab.at(coord), tiled_definition(block, c.period, coord))
          << ::testing::PrintToString(coord);
    });
  }
}

TEST(TiledSlab, ExtractOfASubBoxStaysTiled) {
  for (const auto& c : kTiledCases) {
    const std::vector<double> block = block_for(c.period);
    const Slab slab = Slab::tiled(c.box, c.period, block);
    Box sub = c.box;
    for (std::size_t d = 0; d < sub.lb.size(); ++d) {
      sub.lb[d] += 1;
      sub.ub[d] -= 2;
    }
    const Slab piece = slab.extract(sub);
    EXPECT_TRUE(piece.is_tiled());
    EXPECT_EQ(piece.box(), sub);
    for_each_coord(sub, [&](const Dims& coord) {
      ASSERT_EQ(piece.at(coord), tiled_definition(block, c.period, coord))
          << ::testing::PrintToString(coord);
    });
  }
}

TEST(TiledSlab, FillFromIntoZerosEqualsTheDefinition) {
  for (const auto& c : kTiledCases) {
    const std::vector<double> block = block_for(c.period);
    const Slab slab = Slab::tiled(c.box, c.period, block);
    // Starts below the slab and ends inside it: a partial overlap.
    Box dst_box = c.box;
    for (std::size_t d = 0; d < dst_box.lb.size(); ++d) {
      dst_box.lb[d] /= 2;
      dst_box.ub[d] -= 1;
    }
    Slab dst = Slab::zeros(dst_box);
    dst.fill_from(slab);
    EXPECT_FALSE(dst.is_tiled());
    for_each_coord(dst_box, [&](const Dims& coord) {
      const double want = c.box.contains_point(coord)
                              ? tiled_definition(block, c.period, coord)
                              : 0.0;
      ASSERT_EQ(dst.at(coord), want) << ::testing::PrintToString(coord);
    });
  }
}

TEST(TiledSlab, ChecksumEqualsTheExpandedSlabs) {
  for (const auto& c : kTiledCases) {
    const std::vector<double> block = block_for(c.period);
    const Slab slab = Slab::tiled(c.box, c.period, block);
    Slab expanded = slab;
    expanded.data();
    ASSERT_FALSE(expanded.is_tiled());
    EXPECT_EQ(slab.checksum(), expanded.checksum());
    EXPECT_EQ(slab.checksum(),
              dense_definition(c.box, block, c.period).checksum());
  }
}

TEST(TiledSlab, WritesExpandTheCopyAndLeaveTheOriginalTiled) {
  // Both write the element at the box's lower corner, which is first in
  // row-major order.
  void (*const writes[])(Slab&) = {
      [](Slab& s) { s.set(s.box().lb, -7.0); },
      [](Slab& s) { s.data().front() = -7.0; },
  };
  for (const auto& c : kTiledCases) {
    const std::vector<double> block = block_for(c.period);
    const Slab original = Slab::tiled(c.box, c.period, block);
    const double sum = original.checksum();
    for (auto write : writes) {
      Slab copy = original;
      write(copy);
      EXPECT_TRUE(copy.is_materialized());
      EXPECT_FALSE(copy.is_tiled());
      EXPECT_EQ(std::as_const(copy).data().size(), c.box.volume());
      for_each_coord(c.box, [&](const Dims& coord) {
        const double want = coord == c.box.lb
                                ? -7.0
                                : tiled_definition(block, c.period, coord);
        ASSERT_EQ(copy.at(coord), want) << ::testing::PrintToString(coord);
      });
      EXPECT_TRUE(original.is_tiled());
      EXPECT_EQ(original.checksum(), sum);
      expect_same_content(original, dense_definition(c.box, block, c.period));
    }
  }
}

TEST(TiledSlab, ConstDataThrows) {
  const Slab slab =
      Slab::tiled(Box({0, 0}, {6, 6}), {2, 3}, block_for({2, 3}));
  EXPECT_THROW(slab.data(), std::logic_error);
}

TEST(TiledSlab, RejectsBadInputs) {
  const Box box({0, 0}, {6, 6});
  // A period whose rank differs from the box.
  EXPECT_THROW(Slab::tiled(box, {6}, block_for({6})), std::invalid_argument);
  // A zero period extent.
  EXPECT_THROW(Slab::tiled(box, {2, 0}, {}), std::invalid_argument);
  // A block that is not exactly one period.
  EXPECT_THROW(Slab::tiled(box, {2, 3}, block_for({7})),
               std::invalid_argument);
  // One whose period product would wrap to the block size.
  EXPECT_THROW(Slab::tiled(box, {1ull << 32, 1ull << 32}, {}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Bulk reads: read_points gives at()'s bits at every point, in every form.

TEST(Slab, ReadPointsEqualsAtInEveryForm) {
  Rng rng(11);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t nd = 1 + trial % 3;
    // Every fourth box lies past 2^32.
    const std::uint64_t base = trial % 4 == 3 ? (1ull << 32) + 7 : 0;
    Box box;
    Dims period;
    for (std::size_t d = 0; d < nd; ++d) {
      const std::uint64_t lb = base + rng.next_below(30);
      box.lb.push_back(lb);
      box.ub.push_back(lb + 1 + rng.next_below(8));
      period.push_back(2 + rng.next_below(4));  // rarely divides lb
    }
    std::vector<double> dense(box.volume());
    for (double& v : dense) v = rng.uniform(-1.0, 1.0);
    const Slab forms[] = {Slab::materialized(box, std::move(dense)),
                          Slab::tiled(box, period, block_for(period)),
                          Slab::synthetic(box, 1 + rng.next_below(1000))};
    // Every element of the box, as offsets from its lower corner.
    std::vector<std::uint64_t> all;
    for_each_coord(box, [&](const Dims& c) {
      for (std::size_t d = 0; d < nd; ++d) all.push_back(c[d] - box.lb[d]);
    });
    for (const Slab& slab : forms) {
      std::vector<double> got(box.volume());
      slab.read_points(box.lb, all, nd, got.data());
      std::size_t s = 0;
      for_each_coord(box, [&](const Dims& c) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[s++]),
                  std::bit_cast<std::uint64_t>(slab.at(c)))
            << ::testing::PrintToString(c);
      });
    }
    // Random points over the trailing dimensions, the leading ones fixed.
    for (std::size_t rank = 1; rank <= nd; ++rank) {
      const std::size_t lead = nd - rank;
      Dims origin = box.lb;
      for (std::size_t d = 0; d < lead; ++d) {
        origin[d] += rng.next_below(box.extent(static_cast<int>(d)));
      }
      const std::size_t count = rng.next_below(50);
      std::vector<std::uint64_t> offsets;
      for (std::size_t s = 0; s < count * rank; ++s) {
        offsets.push_back(rng.next_below(
            box.extent(static_cast<int>(lead + s % rank))));
      }
      for (const Slab& slab : forms) {
        std::vector<double> got(count);
        slab.read_points(origin, offsets, rank, got.data());
        for (std::size_t s = 0; s < count; ++s) {
          Dims c = origin;
          for (std::size_t k = 0; k < rank; ++k) {
            c[lead + k] += offsets[s * rank + k];
          }
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got[s]),
                    std::bit_cast<std::uint64_t>(slab.at(c)))
              << ::testing::PrintToString(c);
        }
      }
    }
  }
}

// Two writers' outputs of one period, each block its own allocation, and
// the reader boxes that straddle them.
struct TiledWriters {
  std::vector<Slab> writers;
  std::vector<Box> readers;
};
TiledWriters tiled_writers(std::vector<double> left_block,
                           std::vector<double> right_block) {
  const Dims global = {11, 23};
  const Dims period = {4, 3};
  const auto boxes = decompose_1d(global, 2, 1);
  return {{Slab::tiled(boxes[0], period, std::move(left_block)),
           Slab::tiled(boxes[1], period, std::move(right_block))},
          decompose_1d(global, 3, 1)};
}

// Each reader's pieces, cut from the writers as a staging library does.
std::vector<Slab> pieces_for(const TiledWriters& w, const Box& reader) {
  std::vector<Slab> pieces;
  for (const auto& slab : w.writers) {
    if (auto overlap = intersect(slab.box(), reader)) {
      pieces.push_back(slab.extract(*overlap));
    }
  }
  return pieces;
}

TEST(Assemble, BitwiseEqualBlocksStayTiled) {
  const TiledWriters w = tiled_writers(block_for({4, 3}), block_for({4, 3}));
  for (const auto& rb : w.readers) {
    const std::vector<Slab> pieces = pieces_for(w, rb);
    // At any size: a cap of one element does not expand the tiling.
    for (std::uint64_t cap : {std::uint64_t{1} << 20, std::uint64_t{1}}) {
      const Slab got = assemble(rb, pieces, cap);
      EXPECT_TRUE(got.is_tiled()) << rb.to_string();
      expect_same_content(got, zero_fill_assembly(rb, pieces));
    }
  }
}

TEST(Assemble, DifferingBlocksAssembleDense) {
  std::vector<double> differ = block_for({4, 3});
  differ[5] += 1.0;
  std::vector<double> positive = block_for({4, 3});
  std::vector<double> negative = positive;
  positive[7] = 0.0;
  negative[7] = -0.0;  // numerically equal, bitwise not
  for (const auto& [left, right] :
       {std::pair{block_for({4, 3}), differ}, std::pair{positive, negative}}) {
    const TiledWriters w = tiled_writers(left, right);
    for (const auto& rb : w.readers) {
      const std::vector<Slab> pieces = pieces_for(w, rb);
      const Slab got = assemble(rb, pieces, /*cap=*/1u << 20);
      // Only a reader inside one writer's box keeps that writer's tiling.
      EXPECT_EQ(got.is_tiled(), pieces.size() == 1) << rb.to_string();
      const Slab want = zero_fill_assembly(rb, pieces);
      expect_same_content(got, want);
      for_each_coord(rb, [&](const Dims& c) {
        ASSERT_EQ(std::signbit(got.at(c)), std::signbit(want.at(c)))
            << ::testing::PrintToString(c);
      });
    }
  }
}

TEST(Assemble, DifferingPeriodsAssembleDense) {
  const Box left({0, 0}, {6, 6});
  const Box right({0, 6}, {6, 12});
  const std::vector<Slab> pieces = {
      Slab::tiled(left, {2, 3}, block_for({2, 3})),
      Slab::tiled(right, {3, 2}, block_for({3, 2})),
  };
  const Box box({0, 0}, {6, 12});
  const Slab got = assemble(box, pieces, /*cap=*/1u << 20);
  EXPECT_TRUE(got.is_materialized());
  EXPECT_FALSE(got.is_tiled());
  expect_same_content(got, zero_fill_assembly(box, pieces));
}

}  // namespace
}  // namespace imc::nda
