// The two coupled analytics of the paper's workflows.
//
// MSD (mean squared displacement) characterizes the deviation between a
// particle's position and its reference position — the LAMMPS workflow's
// analysis. MTA (n-th moment turbulence analysis) computes central moments
// of the field — the Laplace workflow's analysis.
//
// Both operate on nda::Slab content through at(), so they work identically
// on materialized (test/example) and synthetic (paper-scale) data; large
// slabs are sampled deterministically.
#pragma once

#include <cstdint>
#include <vector>

#include "ndarray/ndarray.h"

namespace imc::apps {

// MSD over the x/y/z components laid out on the first axis of the LAMMPS
// output (dims {5, nprocs, natoms}: axes 0..2 of dim 0 are positions).
// Samples up to `max_samples` (proc, atom) pairs deterministically. Two
// synthetic slabs with one seed hold the same value at every coordinate,
// so their MSD is exactly +0.0 and is returned without sampling.
double mean_squared_displacement(const nda::Slab& reference,
                                 const nda::Slab& current,
                                 int max_samples = 4096);

// Central moments 2..max_order of the field values in `field`.
std::vector<double> moment_analysis(const nda::Slab& field, int max_order = 4,
                                    int max_samples = 65536);

}  // namespace imc::apps
