// The three workflows of Table II, wrapped for the staging study: output
// geometry, per-rank slabs, compute-time models, and (for LAMMPS/Laplace)
// the real micro-kernel behind the data.
//
// A kernel runs only where its state reaches a slab. LammpsSim and
// LaplaceSim build and step their kernel only when my_box() fits
// kMaterializeCapElems; a larger (paper-scale) rank's output is synthetic,
// the same slab at every step, and it holds no kernel at all. Under the cap
// the output is a tiled slab (nda::Slab::tiled) whose period block is the
// kernel state itself, so an output costs a copy of that state, not of the
// declared slab it repeats over. Every Laplace rank of a world holds the
// same state, so the ranks share one kernel (LaplaceKernel) and one block
// per step.
//
// Compute-time calibration. The paper's figures are images, so absolute
// times are calibrated to the magnitudes its text implies (both workflows
// finish in minutes; Laplace+MTA is compute-heavy; Cori compute runs
// 1/0.636x longer than Titan). The constants below are per coupling step
// per rank on the Titan reference core and are scaled by
// MachineConfig::cpu_speed by the workflow harness. Shapes — who wins,
// where the crossovers are — do not depend on these absolutes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/kernels.h"
#include "common/rng.h"
#include "common/units.h"
#include "ndarray/ndarray.h"

namespace imc::apps {

class LaplaceKernel;

// Content cap: per-rank slabs at most this many elements are materialized
// from the real kernel; larger (paper-scale) slabs are synthetic and have
// no kernel behind them.
inline constexpr std::uint64_t kMaterializeCapElems = 1ull << 18;

// ------------------------------------------------------------- LAMMPS -----

// LAMMPS melt producing 5 x nprocs x 512000 doubles per step (Table II),
// i.e. 20 MB per rank at the default size. Axis 0 holds x,y,z,vx,vy (the
// five per-atom properties staged).
class LammpsSim {
 public:
  struct Params {
    int rank = 0;
    int nprocs = 1;
    std::uint64_t atoms_per_proc = 512000;  // 20 MB/rank with 5 properties
    int kernel_atoms = 256;                 // real micro-MD size
    int md_steps_per_output = 5;
    std::uint64_t seed = 7;
  };

  explicit LammpsSim(Params params);

  // One coupling step of the real micro-kernel (none without a kernel).
  void advance();

  nda::VarDesc output_desc(int version) const;
  nda::Box my_box() const;  // [0..5, rank..rank+1, 0..atoms_per_proc)
  // The rank's output slab for the current state: when small enough, the
  // kernel's atoms tiled along axis 2 (period {5, 1, natoms}), else
  // synthetic.
  nda::Slab output(int version) const;

  // Per-rank application state (the paper's Fig. 5: ~173 MB of numerical
  // calculation per LAMMPS rank).
  std::uint64_t state_bytes() const { return 173 * kMiB; }

  // Calibrated compute model (Titan reference seconds per coupling step).
  double titan_seconds_per_step() const;

  // Whether my_box() fits kMaterializeCapElems, so a kernel was built.
  bool has_kernel() const { return kernel_.has_value(); }
  // Throws std::bad_optional_access unless has_kernel().
  const LjMelt& kernel() const { return kernel_.value(); }

 private:
  Params params_;
  std::optional<LjMelt> kernel_;
};

// Reference MSD analytics cost (per analytics rank per step, Titan).
double msd_titan_seconds_per_step(std::uint64_t bytes_processed);

// ------------------------------------------------------------ Laplace -----

// Laplace solver producing a 2-D global field of 4096 x (nprocs * cols)
// doubles, `cols` columns per rank (Table II: 4096 x nprocs x 4096 at the
// default 128 MB/rank; Fig. 3 sweeps 256^2 .. 4096^2 per rank).
class LaplaceSim {
 public:
  struct Params {
    int rank = 0;
    int nprocs = 1;
    std::uint64_t rows = 4096;
    std::uint64_t cols_per_proc = 4096;  // 128 MB/rank at 4096 rows
    int kernel_n = 48;                   // real micro-grid
    int sweeps_per_output = 4;
    std::uint64_t seed = 11;
  };

  // A rank that steps `kernel`, the one its world's ranks share, or a
  // kernel of its own when none is given. `kernel` must be built from the
  // params of a rank of this world.
  explicit LaplaceSim(Params params,
                      std::shared_ptr<LaplaceKernel> kernel = nullptr);

  // One coupling step of the real micro-kernel (none without a kernel).
  void advance();

  nda::VarDesc output_desc(int version) const;
  nda::Box my_box() const;  // [0..rows, rank*cols..(rank+1)*cols)
  // When small enough, the kernel grid tiled over the field (period
  // {nx, ny}, identical on every rank), else synthetic.
  nda::Slab output(int version) const;

  std::uint64_t state_bytes() const {
    // Two grids (current + next) of the declared per-rank size.
    return 2 * params_.rows * params_.cols_per_proc * sizeof(double);
  }

  double titan_seconds_per_step() const;

  // Whether my_box() fits kMaterializeCapElems, so a kernel was built.
  bool has_kernel() const { return kernel_ != nullptr; }
  // The kernel after this rank's advances. Throws std::bad_optional_access
  // unless has_kernel().
  const JacobiLaplace& kernel() const;

 private:
  Params params_;
  std::shared_ptr<LaplaceKernel> kernel_;  // null without a kernel
  std::size_t steps_ = 0;                  // advance() calls made
};

// The Jacobi kernel of every rank of one Laplace world. A rank's kernel
// depends only on kernel_n and the hot boundary, so every rank's grid after
// k advances is the same: the kernel sweeps once per advance of the
// furthest rank, and the state after each advance is kept, its grid as one
// immutable block tiled over the whole field that every rank's output at
// that step shares. Ranks read the step of their own advance count, since
// back-pressure and stragglers hold ranks steps apart. It belongs to one
// world (DESIGN.md §9). Every step stays until the kernel is destroyed, so
// its memory grows with the advances made: at kernel_n 48 a step holds
// about 55 KB (the state's grid and next-sweep buffer plus the block), and a
// world makes Spec::steps advances.
class LaplaceKernel {
 public:
  // The field geometry, kernel_n and sweeps_per_output of a rank of the
  // world; its rank is not used.
  explicit LaplaceKernel(const LaplaceSim::Params& params);

  // The kernel after `steps` advances, swept up to there on first request.
  // References stay valid for the LaplaceKernel's lifetime.
  const JacobiLaplace& state(std::size_t steps);
  // The field after `steps` advances over `box`, sharing that step's block.
  nda::Slab field(std::size_t steps, const nda::Box& box);

 private:
  struct Step {
    JacobiLaplace state;
    nda::Slab field;  // state's grid tiled over the whole field
  };
  const Step& step(std::size_t steps);

  LaplaceSim::Params params_;
  std::vector<std::unique_ptr<const Step>> steps_;  // [k]: after k advances
};

// Reference MTA analytics cost (per analytics rank per step, Titan).
double mta_titan_seconds_per_step(std::uint64_t bytes_processed);

// ---------------------------------------------------------- Synthetic -----

// The configurable MPI writer/reader of Table II, used for the data-layout
// experiments (Figs. 8 and 9): a 3-D array whose decomposition dimension is
// selectable so the writer layout can be made to match — or mismatch — the
// staging layout.
class SyntheticWriter {
 public:
  struct Params {
    int rank = 0;
    int nprocs = 1;
    // Mismatched (paper default, Fig. 9 "5 x nprocs x 512000"): ranks split
    // dimension 1, DataSpaces splits dimension 2.
    // Matched ("5 x 512 x (1000 x nprocs)"): ranks split dimension 2, the
    // same dimension DataSpaces splits.
    bool match_staging_layout = false;
    std::uint64_t elements_per_proc = 2'560'000;  // 20 MB
    std::uint64_t seed = 23;
  };

  explicit SyntheticWriter(Params params);

  nda::VarDesc output_desc(int version) const;
  nda::Box my_box() const;
  nda::Slab output(int version) const;

 private:
  Params params_;
  nda::Dims global_;
};

}  // namespace imc::apps
