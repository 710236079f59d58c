#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "apps/analysis.h"
#include "apps/apps.h"
#include "apps/kernels.h"
#include "common/units.h"

namespace imc::apps {
namespace {

TEST(LjMelt, BuildsFccLattice) {
  LjMelt md(LjMelt::Params{.natoms = 256});
  EXPECT_EQ(md.natoms(), 256);  // 4 * 4^3
  EXPECT_GT(md.box_side(), 0);
  EXPECT_EQ(md.positions().size(), 3u * 256);
}

TEST(LjMelt, InitialTemperatureMatchesTarget) {
  LjMelt md(LjMelt::Params{.natoms = 256, .temperature = 3.0});
  EXPECT_NEAR(md.temperature(), 3.0, 1e-9);
}

TEST(LjMelt, EnergyApproximatelyConservedOverShortRun) {
  LjMelt md(LjMelt::Params{.natoms = 108});
  const double e0 = md.kinetic_energy() + md.potential_energy();
  md.step(50);
  const double e1 = md.kinetic_energy() + md.potential_energy();
  // Velocity Verlet with dt=0.005 at T=3: drift below a percent of |E|.
  EXPECT_NEAR(e1, e0, 0.02 * std::abs(e0));
}

TEST(LjMelt, AtomsActuallyMove) {
  LjMelt md(LjMelt::Params{.natoms = 108});
  const auto before = md.positions();
  md.step(20);
  double displacement = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    displacement += std::abs(md.positions()[i] - before[i]);
  }
  EXPECT_GT(displacement, 1e-3);
  EXPECT_EQ(md.steps_taken(), 20u);
}

TEST(LjMelt, DeterministicForSameSeed) {
  LjMelt a(LjMelt::Params{.natoms = 108, .seed = 5});
  LjMelt b(LjMelt::Params{.natoms = 108, .seed = 5});
  a.step(10);
  b.step(10);
  EXPECT_EQ(a.positions(), b.positions());
}

TEST(Jacobi, HotBoundaryDiffusesInward) {
  JacobiLaplace solver(JacobiLaplace::Params{32, 32, 100.0});
  EXPECT_DOUBLE_EQ(solver.at(0, 5), 100.0);
  EXPECT_DOUBLE_EQ(solver.at(5, 5), 0.0);
  solver.sweep(100);
  EXPECT_GT(solver.at(5, 16), 0.0);
  EXPECT_LT(solver.at(5, 16), 100.0);
  // Monotone in distance from the hot edge.
  EXPECT_GT(solver.at(1, 16), solver.at(10, 16));
}

TEST(Jacobi, ResidualDecreases) {
  JacobiLaplace solver(JacobiLaplace::Params{24, 24, 100.0});
  const double early = solver.sweep(5);
  double late = 0;
  for (int i = 0; i < 40; ++i) late = solver.sweep(5);
  EXPECT_LT(late, early);
}

TEST(Jacobi, InteriorSatisfiesDiscreteLaplaceAfterConvergence) {
  JacobiLaplace solver(JacobiLaplace::Params{16, 16, 100.0});
  solver.sweep(4000);
  for (int i = 2; i < 14; ++i) {
    for (int j = 2; j < 14; ++j) {
      const double expected = 0.25 * (solver.at(i - 1, j) + solver.at(i + 1, j) +
                                      solver.at(i, j - 1) + solver.at(i, j + 1));
      EXPECT_NEAR(solver.at(i, j), expected, 1e-6);
    }
  }
}

TEST(Msd, ZeroWhenNothingMoved) {
  nda::Box box({0, 0, 0}, {5, 2, 100});
  nda::Slab a = nda::Slab::synthetic(box, 7);
  EXPECT_DOUBLE_EQ(mean_squared_displacement(a, a), 0.0);
}

TEST(Msd, OneSyntheticDefinitionIsExactlyPositiveZero) {
  // Two slabs, as two steps of a paper-scale rank hand them to a reader.
  const nda::Box box({0, 3, 0}, {5, 4, 512000});
  const nda::Slab reference = nda::Slab::synthetic(box, 7);
  const nda::Slab current = nda::Slab::synthetic(box, 7);
  const double msd = mean_squared_displacement(reference, current);
  EXPECT_EQ(msd, 0.0);
  EXPECT_FALSE(std::signbit(msd));
}

TEST(Msd, DifferentSeedsStillSample) {
  const nda::Box box({0, 0, 0}, {5, 2, 100});
  const double msd = mean_squared_displacement(
      nda::Slab::synthetic(box, 7), nda::Slab::synthetic(box, 8));
  // Independent values uniform on (-1, 1): E[(a - b)^2] is 2/3 per axis.
  EXPECT_GT(msd, 0.0);
  EXPECT_NEAR(msd, 2.0, 0.5);
}

TEST(Msd, PositiveForDisplacedParticles) {
  nda::Box box({0, 0, 0}, {5, 2, 100});
  nda::Slab ref = nda::Slab::zeros(box);
  nda::Slab cur = nda::Slab::zeros(box);
  // Shift every particle by (1, 2, 2): MSD = 1 + 4 + 4 = 9.
  for (std::uint64_t p = 0; p < 2; ++p) {
    for (std::uint64_t atom = 0; atom < 100; ++atom) {
      cur.set({0, p, atom}, 1.0);
      cur.set({1, p, atom}, 2.0);
      cur.set({2, p, atom}, 2.0);
    }
  }
  EXPECT_DOUBLE_EQ(mean_squared_displacement(ref, cur), 9.0);
}

TEST(Mta, MomentsOfConstantFieldAreZero) {
  nda::Slab field = nda::Slab::zeros(nda::Box({0, 0}, {32, 32}));
  auto moments = moment_analysis(field, 4);
  ASSERT_EQ(moments.size(), 3u);
  for (double m : moments) EXPECT_DOUBLE_EQ(m, 0.0);
}

TEST(Mta, SecondMomentIsVariance) {
  // Two-valued field: half 0, half 2 -> variance 1.
  nda::Slab field = nda::Slab::zeros(nda::Box({0, 0}, {2, 1000}));
  for (std::uint64_t j = 0; j < 1000; ++j) field.set({1, j}, 2.0);
  auto moments = moment_analysis(field, 2, 100000);
  ASSERT_EQ(moments.size(), 1u);
  EXPECT_NEAR(moments[0], 1.0, 0.05);  // sampled
}

TEST(LammpsSim, PaperGeometry) {
  LammpsSim sim(LammpsSim::Params{.rank = 3, .nprocs = 32});
  const auto var = sim.output_desc(2);
  EXPECT_EQ(var.global, (nda::Dims{5, 32, 512000}));
  EXPECT_EQ(var.version, 2);
  EXPECT_EQ(sim.my_box(), nda::Box({0, 3, 0}, {5, 4, 512000}));
  // 20 MB per rank (Table II / Fig. 2 caption).
  EXPECT_NEAR(static_cast<double>(sim.my_box().volume() * 8), 20.48e6, 1e4);
}

TEST(LammpsSim, SmallOutputMaterializedFromKernel) {
  LammpsSim sim(LammpsSim::Params{
      .rank = 0, .nprocs = 2, .atoms_per_proc = 1000, .kernel_atoms = 108});
  sim.advance();
  auto slab = sim.output(0);
  ASSERT_TRUE(slab.is_materialized());
  // Property 0 is x: must match a kernel position.
  EXPECT_DOUBLE_EQ(slab.at({0, 0, 0}), sim.kernel().positions()[0]);
}

TEST(LammpsSim, OutputTilesKernelAtomsElementForElement) {
  // Rank > 0, and 1000 atoms is not a multiple of the 108-atom kernel.
  LammpsSim sim(LammpsSim::Params{
      .rank = 3, .nprocs = 5, .atoms_per_proc = 1000, .kernel_atoms = 108});
  sim.advance();
  const nda::Slab slab = sim.output(0);
  ASSERT_TRUE(slab.is_materialized());
  ASSERT_EQ(slab.box(), sim.my_box());
  const auto& pos = sim.kernel().positions();
  const auto& vel = sim.kernel().velocities();
  const auto n = static_cast<std::uint64_t>(sim.kernel().natoms());
  for (std::uint64_t atom = 0; atom < 1000; ++atom) {
    const std::size_t k = 3 * (atom % n);
    const double want[5] = {pos[k], pos[k + 1], pos[k + 2], vel[k],
                            vel[k + 1]};
    for (std::uint64_t property = 0; property < 5; ++property) {
      ASSERT_EQ(slab.at({property, 3, atom}), want[property])
          << "property " << property << " atom " << atom;
    }
  }
}

TEST(LammpsSim, LargeOutputIsSynthetic) {
  LammpsSim sim(LammpsSim::Params{.rank = 0, .nprocs = 2});
  EXPECT_FALSE(sim.output(0).is_materialized());
}

TEST(LammpsSim, KernelOnlyBehindMaterializedOutput) {
  LammpsSim big(LammpsSim::Params{.rank = 1, .nprocs = 2});
  ASSERT_GT(big.my_box().volume(), kMaterializeCapElems);
  EXPECT_FALSE(big.has_kernel());
  const nda::Slab before = big.output(0);
  big.advance();
  const nda::Slab after = big.output(1);
  EXPECT_FALSE(after.is_materialized());
  EXPECT_EQ(after.box(), before.box());
  EXPECT_EQ(after.seed(), before.seed());

  LammpsSim small(LammpsSim::Params{
      .rank = 0, .nprocs = 2, .atoms_per_proc = 1000, .kernel_atoms = 108});
  ASSERT_LE(small.my_box().volume(), kMaterializeCapElems);
  EXPECT_TRUE(small.has_kernel());
}

// The reader assembly every staging library performed before pieces of one
// tiling merged: a zero-filled slab with each piece copied in.
nda::Slab dense_assembly(const nda::Box& box,
                         const std::vector<nda::Slab>& pieces) {
  nda::Slab out = nda::Slab::zeros(box);
  for (const auto& p : pieces) out.fill_from(p);
  return out;
}

TEST(LammpsSim, RanksDoNotMergeAndMsdMatchesTheDensePath) {
  // Kernels are seeded per rank, so two ranks' blocks differ.
  std::vector<LammpsSim> sims;
  for (int rank : {0, 1}) {
    sims.emplace_back(LammpsSim::Params{
        .rank = rank, .nprocs = 2, .atoms_per_proc = 1000,
        .kernel_atoms = 108});
  }
  std::vector<std::vector<nda::Slab>> steps(2);  // [step][rank]
  for (auto& outputs : steps) {
    for (auto& sim : sims) {
      sim.advance();
      outputs.push_back(sim.output(0));
    }
  }
  const nda::Box reader({0, 0, 0}, {5, 2, 1000});
  const nda::Slab reference = nda::assemble(reader, steps[0], 1u << 20);
  const nda::Slab current = nda::assemble(reader, steps[1], 1u << 20);
  EXPECT_TRUE(reference.is_materialized());
  EXPECT_FALSE(reference.is_tiled());
  EXPECT_FALSE(current.is_tiled());
  EXPECT_EQ(mean_squared_displacement(reference, current),
            mean_squared_displacement(dense_assembly(reader, steps[0]),
                                      dense_assembly(reader, steps[1])));
  // One rank's tiled outputs against their expansions.
  nda::Slab reference_dense = steps[0][1];
  nda::Slab current_dense = steps[1][1];
  reference_dense.data();
  current_dense.data();
  ASSERT_FALSE(reference_dense.is_tiled());
  const double msd = mean_squared_displacement(steps[0][1], steps[1][1]);
  EXPECT_GT(msd, 0.0);
  EXPECT_EQ(msd, mean_squared_displacement(reference_dense, current_dense));
}

TEST(LaplaceSim, PaperGeometry) {
  LaplaceSim sim(LaplaceSim::Params{.rank = 1, .nprocs = 64});
  EXPECT_EQ(sim.output_desc(0).global, (nda::Dims{4096, 64ull * 4096}));
  EXPECT_EQ(sim.my_box(), nda::Box({0, 4096}, {4096, 8192}));
  // 128 MB per rank.
  EXPECT_EQ(sim.my_box().volume() * 8, 4096ull * 4096 * 8);
}

TEST(LaplaceSim, OutputTilesKernelGridElementForElement) {
  // Rank 2 of 13 columns starts at column 26: neither the offset, the
  // width nor the 21 rows are multiples of the 8-point kernel grid.
  LaplaceSim sim(LaplaceSim::Params{.rank = 2,
                                    .nprocs = 4,
                                    .rows = 21,
                                    .cols_per_proc = 13,
                                    .kernel_n = 8});
  sim.advance();
  const nda::Slab slab = sim.output(0);
  ASSERT_TRUE(slab.is_materialized());
  ASSERT_EQ(slab.box(), nda::Box({0, 26}, {21, 39}));
  for (std::uint64_t i = 0; i < 21; ++i) {
    for (std::uint64_t j = 26; j < 39; ++j) {
      ASSERT_EQ(slab.at({i, j}), sim.kernel().at(static_cast<int>(i % 8),
                                                 static_cast<int>(j % 8)))
          << "at (" << i << ", " << j << ")";
    }
  }
}

TEST(LaplaceSim, KernelOnlyBehindMaterializedOutput) {
  LaplaceSim big(LaplaceSim::Params{
      .rank = 1, .nprocs = 4, .rows = 1024, .cols_per_proc = 1024});
  ASSERT_GT(big.my_box().volume(), kMaterializeCapElems);
  EXPECT_FALSE(big.has_kernel());
  const nda::Slab before = big.output(0);
  big.advance();
  const nda::Slab after = big.output(1);
  EXPECT_FALSE(after.is_materialized());
  EXPECT_EQ(after.box(), before.box());
  EXPECT_EQ(after.seed(), before.seed());

  LaplaceSim small(LaplaceSim::Params{
      .rank = 1, .nprocs = 4, .rows = 512, .cols_per_proc = 512});
  ASSERT_LE(small.my_box().volume(), kMaterializeCapElems);
  EXPECT_TRUE(small.has_kernel());
}

TEST(LaplaceSim, RanksAssembleToOneTiling) {
  // Every rank runs the same Jacobi kernel, so their blocks are bitwise
  // equal and a reader straddling two ranks keeps one tiling.
  std::vector<nda::Slab> outputs;
  for (int rank : {0, 1}) {
    LaplaceSim sim(LaplaceSim::Params{
        .rank = rank, .nprocs = 2, .rows = 21, .cols_per_proc = 13,
        .kernel_n = 8});
    sim.advance();
    outputs.push_back(sim.output(0));
    EXPECT_TRUE(outputs.back().is_tiled());
  }
  const nda::Box reader({0, 4}, {21, 22});
  const nda::Slab got = nda::assemble(reader, outputs, /*cap=*/1u << 20);
  const nda::Slab dense = dense_assembly(reader, outputs);
  ASSERT_TRUE(got.is_tiled());
  ASSERT_FALSE(dense.is_tiled());
  EXPECT_EQ(got.checksum(), dense.checksum());
  EXPECT_EQ(moment_analysis(got, 4, 2048), moment_analysis(dense, 4, 2048));
}

TEST(LaplaceSim, ComputeScalesWithProblemSize) {
  LaplaceSim big(LaplaceSim::Params{.rank = 0, .nprocs = 1});
  LaplaceSim small(LaplaceSim::Params{
      .rank = 0, .nprocs = 1, .rows = 2048, .cols_per_proc = 2048});
  EXPECT_NEAR(big.titan_seconds_per_step() / small.titan_seconds_per_step(),
              4.0, 0.2);
}

TEST(SyntheticWriter, MismatchedLayoutSplitsDimensionOne) {
  SyntheticWriter w(SyntheticWriter::Params{.rank = 2, .nprocs = 8});
  const auto box = w.my_box();
  EXPECT_EQ(box.lb[1], 2u);
  EXPECT_EQ(box.ub[1], 3u);
  EXPECT_EQ(box.extent(0), 5u);
  // DataSpaces would split dimension 2 (the longest) — the mismatch.
  EXPECT_EQ(nda::longest_dim(w.output_desc(0).global), 2);
}

TEST(SyntheticWriter, MatchedLayoutSplitsLongestDimension) {
  SyntheticWriter w(SyntheticWriter::Params{
      .rank = 2, .nprocs = 8, .match_staging_layout = true});
  const auto box = w.my_box();
  const auto global = w.output_desc(0).global;
  EXPECT_EQ(nda::longest_dim(global), 2);
  EXPECT_GT(box.lb[2], 0u);               // rank 2 owns a dim-2 slice
  EXPECT_EQ(box.extent(0), global[0]);    // full other dims
  EXPECT_EQ(box.extent(1), global[1]);
}

}  // namespace
}  // namespace imc::apps
