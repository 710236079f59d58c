#include "apps/apps.h"

namespace imc::apps {
namespace {

// Calibrated Titan-reference compute costs (see apps.h header comment).
constexpr double kLammpsSecondsPerStep = 2.0;
constexpr double kLaplaceSecondsPerStepAt4096 = 8.0;
constexpr double kMsdSecondsPerMiB = 0.02;   // ~0.8 s over two 20 MB slabs
constexpr double kMtaSecondsPerMiB = 0.016;  // ~4 s over two 128 MB slabs

}  // namespace

// ------------------------------------------------------------- LAMMPS -----

LammpsSim::LammpsSim(Params params) : params_(params) {
  if (my_box().volume() <= kMaterializeCapElems) {
    kernel_.emplace(LjMelt::Params{
        params.kernel_atoms, 0.8442, 3.0, 0.005, 2.5,
        params.seed + static_cast<std::uint64_t>(params.rank)});
  }
}

void LammpsSim::advance() {
  if (kernel_) kernel_->step(params_.md_steps_per_output);
}

nda::VarDesc LammpsSim::output_desc(int version) const {
  return nda::VarDesc{
      "atoms",
      {5, static_cast<std::uint64_t>(params_.nprocs), params_.atoms_per_proc},
      version};
}

nda::Box LammpsSim::my_box() const {
  const auto rank = static_cast<std::uint64_t>(params_.rank);
  return nda::Box({0, rank, 0}, {5, rank + 1, params_.atoms_per_proc});
}

nda::Slab LammpsSim::output(int version) const {
  (void)version;
  const nda::Box box = my_box();
  if (!kernel_) return nda::Slab::synthetic(box, params_.seed);
  // The kernel's atoms tile the declared atom count: element (p, rank, a)
  // is property p of kernel atom a mod n. Axis 0 rows are x, y, z, vx, vy,
  // gathered per atom from the interleaved kernel arrays.
  const auto n = static_cast<std::size_t>(kernel_->natoms());
  std::vector<double> block(5 * n);
  for (std::size_t property = 0; property < 5; ++property) {
    const std::vector<double>& src =
        property < 3 ? kernel_->positions() : kernel_->velocities();
    for (std::size_t k = 0; k < n; ++k) {
      block[property * n + k] = src[3 * k + property % 3];
    }
  }
  return nda::Slab::tiled(box, {5, 1, n}, std::move(block));
}

double LammpsSim::titan_seconds_per_step() const {
  // Weak scaling: cost tracks the per-rank atom count.
  const double size_factor =
      static_cast<double>(params_.atoms_per_proc) / 512000.0;
  // Small deterministic per-rank jitter so collectives see realistic skew.
  Rng rng(params_.seed * 131 + static_cast<std::uint64_t>(params_.rank));
  return kLammpsSecondsPerStep * size_factor * rng.uniform(0.98, 1.02);
}

double msd_titan_seconds_per_step(std::uint64_t bytes_processed) {
  return kMsdSecondsPerMiB * static_cast<double>(bytes_processed) /
         static_cast<double>(kMiB);
}

// ------------------------------------------------------------ Laplace -----

LaplaceSim::LaplaceSim(Params params, std::shared_ptr<LaplaceKernel> kernel)
    : params_(params) {
  if (my_box().volume() > kMaterializeCapElems) return;
  kernel_ =
      kernel ? std::move(kernel) : std::make_shared<LaplaceKernel>(params);
}

void LaplaceSim::advance() {
  if (kernel_) kernel_->state(++steps_);  // sweeps unless a rank did
}

const JacobiLaplace& LaplaceSim::kernel() const {
  if (!kernel_) throw std::bad_optional_access();
  return kernel_->state(steps_);
}

nda::VarDesc LaplaceSim::output_desc(int version) const {
  return nda::VarDesc{
      "field",
      {params_.rows,
       static_cast<std::uint64_t>(params_.nprocs) * params_.cols_per_proc},
      version};
}

nda::Box LaplaceSim::my_box() const {
  const auto rank = static_cast<std::uint64_t>(params_.rank);
  return nda::Box({0, rank * params_.cols_per_proc},
                  {params_.rows, (rank + 1) * params_.cols_per_proc});
}

nda::Slab LaplaceSim::output(int version) const {
  (void)version;
  if (!kernel_) return nda::Slab::synthetic(my_box(), params_.seed);
  return kernel_->field(steps_, my_box());
}

double LaplaceSim::titan_seconds_per_step() const {
  const double elements =
      static_cast<double>(params_.rows * params_.cols_per_proc);
  const double size_factor = elements / (4096.0 * 4096.0);
  Rng rng(params_.seed * 151 + static_cast<std::uint64_t>(params_.rank));
  return kLaplaceSecondsPerStepAt4096 * size_factor * rng.uniform(0.98, 1.02);
}

double mta_titan_seconds_per_step(std::uint64_t bytes_processed) {
  return kMtaSecondsPerMiB * static_cast<double>(bytes_processed) /
         static_cast<double>(kMiB);
}

LaplaceKernel::LaplaceKernel(const LaplaceSim::Params& params)
    : params_(params) {}

const LaplaceKernel::Step& LaplaceKernel::step(std::size_t steps) {
  const int n = params_.kernel_n;
  while (steps_.size() <= steps) {
    JacobiLaplace state = steps_.empty()
                              ? JacobiLaplace({n, n, 100.0})
                              : steps_.back()->state;
    if (!steps_.empty()) state.sweep(params_.sweeps_per_output);
    // The field tiles the grid: element (i, j) is state.at(i mod n, j mod n).
    const auto extent = static_cast<std::uint64_t>(n);
    const nda::Dims global = {
        params_.rows,
        static_cast<std::uint64_t>(params_.nprocs) * params_.cols_per_proc};
    nda::Slab field = nda::Slab::tiled(nda::Box::whole(global),
                                       {extent, extent}, state.grid());
    steps_.push_back(
        std::make_unique<const Step>(Step{std::move(state), std::move(field)}));
  }
  return *steps_[steps];
}

const JacobiLaplace& LaplaceKernel::state(std::size_t steps) {
  return step(steps).state;
}

nda::Slab LaplaceKernel::field(std::size_t steps, const nda::Box& box) {
  return step(steps).field.extract(box);
}

// ---------------------------------------------------------- Synthetic -----

SyntheticWriter::SyntheticWriter(Params params) : params_(params) {
  const auto n = static_cast<std::uint64_t>(params_.nprocs);
  if (params_.match_staging_layout) {
    // 5 x 512 x (per-proc x nprocs): ranks and DataSpaces both split the
    // last (longest) dimension.
    const std::uint64_t per_rank = params_.elements_per_proc / (5 * 512);
    global_ = {5, 512, per_rank * n};
  } else {
    // 5 x nprocs x per-atom: ranks split dimension 1 while DataSpaces
    // splits the longest dimension 2 (the paper's mismatched default).
    global_ = {5, n, params_.elements_per_proc / 5};
  }
}

nda::VarDesc SyntheticWriter::output_desc(int version) const {
  return nda::VarDesc{"synthetic", global_, version};
}

nda::Box SyntheticWriter::my_box() const {
  const auto rank = static_cast<std::uint64_t>(params_.rank);
  nda::Box box = nda::Box::whole(global_);
  if (params_.match_staging_layout) {
    const std::uint64_t share =
        global_[2] / static_cast<std::uint64_t>(params_.nprocs);
    box.lb[2] = rank * share;
    box.ub[2] = (rank + 1) * share;
  } else {
    box.lb[1] = rank;
    box.ub[1] = rank + 1;
  }
  return box;
}

nda::Slab SyntheticWriter::output(int version) const {
  (void)version;
  const nda::Box box = my_box();
  if (box.volume() > kMaterializeCapElems) {
    return nda::Slab::synthetic(box, params_.seed);
  }
  nda::Slab slab = nda::Slab::zeros(box);
  slab.fill_from(nda::Slab::synthetic(box, params_.seed));
  return slab;
}

}  // namespace imc::apps
