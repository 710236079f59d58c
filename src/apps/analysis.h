// The two coupled analytics of the paper's workflows.
//
// MSD (mean squared displacement) characterizes the deviation between a
// particle's position and its reference position — the LAMMPS workflow's
// analysis. MTA (n-th moment turbulence analysis) computes central moments
// of the field — the Laplace workflow's analysis.
//
// Both read nda::Slab content, so they work identically on materialized
// (test/example) and synthetic (paper-scale) data; large slabs are sampled
// deterministically. Where an analysis samples depends only on the extents
// of the box it reads, so the points live in a SamplePlan that a world
// builds once per distinct reader extent (SamplePlans) and every later call
// reads through one bulk Slab::read_points.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ndarray/ndarray.h"

namespace imc::apps {

// The points an analysis samples in a box of the given extents, as offsets
// from its lower corner: min(max_samples, volume) points, each drawn with
// one Rng(seed).next_below(extent) per dimension, so a plan is a pure
// function of (extents, max_samples, seed).
class SamplePlan {
 public:
  // Throws std::invalid_argument for a negative max_samples.
  SamplePlan(const nda::Dims& extents, int max_samples, std::uint64_t seed);

  bool matches(const nda::Dims& extents, int max_samples,
               std::uint64_t seed) const {
    return extents_ == extents && max_samples_ == max_samples &&
           seed_ == seed;
  }
  std::size_t size() const { return size_; }
  // size() points, one offset per dimension each.
  std::span<const std::uint64_t> offsets() const { return offsets_; }

 private:
  nda::Dims extents_;
  int max_samples_;
  std::uint64_t seed_;
  std::size_t size_ = 0;
  std::vector<std::uint64_t> offsets_;
};

// The plans of one world, each built on first use. Its readers' boxes come
// from one decompose_1d, which gives at most two distinct extents, so a
// world builds at most two plans per analysis. A SamplePlans belongs to one
// world (DESIGN.md §9): it is never shared between threads.
class SamplePlans {
 public:
  // References stay valid for the SamplePlans' lifetime.
  const SamplePlan& get(const nda::Dims& extents, int max_samples,
                        std::uint64_t seed);

 private:
  std::vector<std::unique_ptr<const SamplePlan>> plans_;
};

// MSD over the x/y/z components laid out on the first axis of the LAMMPS
// output (dims {5, nprocs, natoms}: axes 0..2 of dim 0 are positions).
// Samples up to `max_samples` (proc, atom) pairs deterministically. Two
// synthetic slabs with one seed hold the same value at every coordinate,
// so their MSD is exactly +0.0 and is returned without sampling (and
// without a plan).
double mean_squared_displacement(const nda::Slab& reference,
                                 const nda::Slab& current, int max_samples,
                                 SamplePlans& plans);

// Central moments 2..max_order of up to `max_samples` sampled field values.
std::vector<double> moment_analysis(const nda::Slab& field, int max_order,
                                    int max_samples, SamplePlans& plans);

// One-off calls: the same results from a plan built for this call alone.
double mean_squared_displacement(const nda::Slab& reference,
                                 const nda::Slab& current,
                                 int max_samples = 4096);
std::vector<double> moment_analysis(const nda::Slab& field, int max_order = 4,
                                    int max_samples = 65536);

}  // namespace imc::apps
