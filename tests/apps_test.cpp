#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "apps/analysis.h"
#include "apps/apps.h"
#include "apps/kernels.h"
#include "common/rng.h"
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

// ---------------------------------------------------------------------------
// Sample plans. The analyses drew fresh coordinates on every call and read
// them one at() at a time; that loop stays here as the reference the plans
// and the bulk read must reproduce bit for bit.

std::vector<nda::Dims> per_call_coords(const nda::Box& box, int max_samples,
                                       std::uint64_t seed) {
  std::vector<nda::Dims> out;
  const std::uint64_t volume = box.volume();
  if (volume == 0) return out;
  Rng rng(seed);
  const std::uint64_t n =
      std::min<std::uint64_t>(static_cast<std::uint64_t>(max_samples), volume);
  out.reserve(n);
  for (std::uint64_t s = 0; s < n; ++s) {
    nda::Dims coord(box.lb.size());
    for (std::size_t d = 0; d < coord.size(); ++d) {
      coord[d] = box.lb[d] + rng.next_below(box.extent(static_cast<int>(d)));
    }
    out.push_back(std::move(coord));
  }
  return out;
}

std::vector<double> per_call_moments(const nda::Slab& field, int max_order,
                                     int max_samples) {
  auto samples = per_call_coords(field.box(), max_samples, 0x47a);
  std::vector<double> moments(static_cast<std::size_t>(max_order) - 1, 0.0);
  if (samples.empty()) return moments;
  double mean = 0;
  std::vector<double> values;
  for (const auto& coord : samples) {
    values.push_back(field.at(coord));
    mean += values.back();
  }
  mean /= static_cast<double>(values.size());
  for (double v : values) {
    double power = (v - mean) * (v - mean);
    for (int order = 2; order <= max_order; ++order) {
      moments[static_cast<std::size_t>(order - 2)] += power;
      power *= (v - mean);
    }
  }
  for (auto& m : moments) m /= static_cast<double>(values.size());
  return moments;
}

double per_call_msd(const nda::Slab& reference, const nda::Slab& current,
                    int max_samples) {
  const nda::Box& box = reference.box();
  if (!reference.is_materialized() && !current.is_materialized() &&
      reference.seed() == current.seed()) {
    return 0.0;
  }
  nda::Box particle_box;
  particle_box.lb = {box.lb[1], box.lb[2]};
  particle_box.ub = {box.ub[1], box.ub[2]};
  auto samples = per_call_coords(particle_box, max_samples, 0xD15);
  if (samples.empty()) return 0.0;
  double sum = 0;
  for (const auto& pa : samples) {
    double d2 = 0;
    for (std::uint64_t axis = 0; axis < 3; ++axis) {
      const nda::Dims coord = {axis, pa[0], pa[1]};
      const double delta = current.at(coord) - reference.at(coord);
      d2 += delta * delta;
    }
    sum += d2;
  }
  return sum / static_cast<double>(samples.size());
}

std::vector<std::uint64_t> bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

// A box of `rank` dimensions with lower corner in [0, 40) and extents in
// [0, max_extent]; rank 0 draws nothing, so the same seed gives one box.
nda::Box random_box(Rng& rng, int rank, std::uint64_t max_extent) {
  nda::Box box;
  for (int d = 0; d < rank; ++d) {
    const std::uint64_t lb = rng.next_below(40);
    box.lb.push_back(lb);
    box.ub.push_back(lb + rng.next_below(max_extent + 1));
  }
  return box;
}

// The three content forms over `box`: dense, tiled with a period that does
// not divide the box's bounds, and synthetic.
std::vector<nda::Slab> every_form(Rng& rng, const nda::Box& box) {
  std::vector<double> dense(box.volume());
  for (double& v : dense) v = rng.uniform(-50.0, 50.0);
  nda::Dims period(box.lb.size());
  std::uint64_t period_volume = 1;
  for (auto& extent : period) {
    extent = 2 + rng.next_below(5);
    period_volume *= extent;
  }
  std::vector<double> block(period_volume);
  for (double& v : block) v = rng.uniform(-50.0, 50.0);
  return {nda::Slab::materialized(box, std::move(dense)),
          nda::Slab::tiled(box, period, std::move(block)),
          nda::Slab::synthetic(box, 1 + rng.next_below(1000))};
}

TEST(SamplePlan, OffsetsAreThePerCallCoordinatesFromTheLowerCorner) {
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    const nda::Box box = random_box(rng, 1 + trial % 3, 30);
    nda::Dims extents;
    for (int d = 0; d < box.dims(); ++d) extents.push_back(box.extent(d));
    const SamplePlan plan(extents, 300, 0x47a);
    const auto want = per_call_coords(box, 300, 0x47a);
    ASSERT_EQ(plan.size(), want.size());
    ASSERT_EQ(plan.offsets().size(), want.size() * extents.size());
    for (std::size_t s = 0; s < want.size(); ++s) {
      for (std::size_t d = 0; d < extents.size(); ++d) {
        ASSERT_EQ(box.lb[d] + plan.offsets()[s * extents.size() + d],
                  want[s][d]);
      }
    }
  }
}

TEST(SamplePlan, MtaMatchesThePerCallSamplerInEveryForm) {
  Rng rng(5);
  SamplePlans plans;  // one world's memo, shared by every box below
  for (int trial = 0; trial < 60; ++trial) {
    // Volumes from zero to 27000, below and above the sample counts.
    nda::Box box = random_box(rng, 1 + trial % 3, 30);
    if (trial < 3) box.ub[0] = box.lb[0];  // zero volume at every rank
    const int max_order = 2 + trial % 8;  // one to eight moments
    for (const nda::Slab& field : every_form(rng, box)) {
      for (int max_samples : {0, 1, 37, 2048}) {
        const auto want =
            bits(per_call_moments(field, max_order, max_samples));
        EXPECT_EQ(bits(moment_analysis(field, max_order, max_samples)), want)
            << box.to_string() << " " << max_samples;
        EXPECT_EQ(
            bits(moment_analysis(field, max_order, max_samples, plans)),
            want)
            << box.to_string() << " " << max_samples;
      }
    }
  }
}

TEST(SamplePlan, MsdMatchesThePerCallSamplerInEveryForm) {
  Rng rng(7);
  SamplePlans plans;
  for (int trial = 0; trial < 40; ++trial) {
    // {5, procs, atoms} at a nonzero (proc, atom) corner; some are empty.
    nda::Box particles = random_box(rng, 2, 40);
    if (trial < 2) particles.ub[trial] = particles.lb[trial];
    const nda::Box box({0, particles.lb[0], particles.lb[1]},
                       {5, particles.ub[0], particles.ub[1]});
    const auto references = every_form(rng, box);
    const auto currents = every_form(rng, box);
    for (const nda::Slab& reference : references) {
      for (const nda::Slab& current : currents) {
        for (int max_samples : {0, 1, 37, 512}) {
          const auto want = std::bit_cast<std::uint64_t>(
              per_call_msd(reference, current, max_samples));
          EXPECT_EQ(std::bit_cast<std::uint64_t>(mean_squared_displacement(
                        reference, current, max_samples)),
                    want)
              << box.to_string() << " " << max_samples;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(mean_squared_displacement(
                        reference, current, max_samples, plans)),
                    want)
              << box.to_string() << " " << max_samples;
        }
      }
    }
  }
}

TEST(SamplePlan, AWorldBuildsOnePlanPerExtent) {
  SamplePlans plans;
  const SamplePlan& a = plans.get({512, 1024}, 2048, 0x47a);
  const SamplePlan& b = plans.get({512, 1025}, 2048, 0x47a);
  EXPECT_NE(&a, &b);
  EXPECT_EQ(&plans.get({512, 1024}, 2048, 0x47a), &a);
  EXPECT_EQ(&plans.get({512, 1025}, 2048, 0x47a), &b);
  EXPECT_NE(&plans.get({512, 1024}, 512, 0x47a), &a);
  EXPECT_NE(&plans.get({512, 1024}, 2048, 0xD15), &a);
  EXPECT_EQ(a.size(), 2048u);
}

TEST(SamplePlan, RejectsANegativeCount) {
  // A negative count once wrapped to 2^64 - 1 and sampled every element.
  EXPECT_THROW(SamplePlan({4, 4}, -1, 1), std::invalid_argument);
  const nda::Slab field =
      nda::Slab::synthetic(nda::Box({0, 0}, {1024, 1024}), 3);
  EXPECT_THROW(moment_analysis(field, 4, -1), std::invalid_argument);
  const nda::Box box({0, 0, 0}, {5, 2, 100});
  EXPECT_THROW(mean_squared_displacement(nda::Slab::synthetic(box, 7),
                                         nda::Slab::synthetic(box, 8), -1),
               std::invalid_argument);
  SamplePlans plans;
  EXPECT_THROW(plans.get({4, 4}, -5, 1), std::invalid_argument);
  EXPECT_EQ(plans.get({4, 4}, 0, 1).size(), 0u);
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

TEST(LaplaceSim, RanksShareOneKernelUnderStaggeredAdvances) {
  const LaplaceSim::Params world{
      .nprocs = 3, .rows = 21, .cols_per_proc = 13, .kernel_n = 8};
  const auto kernel = std::make_shared<LaplaceKernel>(world);
  std::vector<LaplaceSim> ranks;
  for (int rank = 0; rank < 3; ++rank) {
    LaplaceSim::Params p = world;
    p.rank = rank;
    ranks.emplace_back(p, kernel);
    ASSERT_TRUE(ranks.back().has_kernel());
  }
  // Rank 2 runs two steps ahead while ranks 0 and 1 interleave behind it.
  std::vector<int> steps(3, 0);
  for (int rank : {2, 2, 0, 2, 1, 0, 1, 2, 0}) {
    LaplaceSim& sim = ranks[static_cast<std::size_t>(rank)];
    sim.advance();
    const int step = ++steps[static_cast<std::size_t>(rank)];
    LaplaceSim::Params p = world;
    p.rank = rank;
    LaplaceSim alone(p);
    for (int k = 0; k < step; ++k) alone.advance();
    const nda::Slab got = sim.output(step);
    const nda::Slab want = alone.output(step);
    ASSERT_EQ(got.box(), want.box());
    ASSERT_TRUE(got.is_tiled());
    for (std::uint64_t i = 0; i < 21; ++i) {
      for (std::uint64_t j = want.box().lb[1]; j < want.box().ub[1]; ++j) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got.at({i, j})),
                  std::bit_cast<std::uint64_t>(want.at({i, j})))
            << "rank " << rank << " step " << step;
      }
    }
    // kernel() is the rank's own state, not the furthest rank's.
    EXPECT_EQ(sim.kernel().sweeps_taken(), 4u * static_cast<unsigned>(step));
    EXPECT_EQ(sim.kernel().grid(), alone.kernel().grid());
  }
  ASSERT_EQ(steps, (std::vector<int>{3, 2, 4}));
  // Ranks at one step share one block, so a reader across them stays tiled
  // even at a cap of one element; ranks a step apart assemble apart.
  ranks[1].advance();
  const nda::Box reader({0, 4}, {21, 22});
  const nda::Slab merged =
      nda::assemble(reader, {ranks[0].output(3), ranks[1].output(3)}, 1);
  EXPECT_TRUE(merged.is_tiled());
  const nda::Slab apart =
      nda::assemble(reader, {ranks[0].output(3), ranks[2].output(4)}, 1);
  EXPECT_FALSE(apart.is_materialized());
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
