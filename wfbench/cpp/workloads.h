// The benchmark's workloads: fixed workflow::Spec lists, the sweep width
// each runs at, and the seeded submission order.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "workflow/workflow.h"

namespace wfbench {

struct Workload {
  std::string name;
  std::vector<imc::workflow::Spec> specs;  // canonical order
  int threads = 1;                         // sweep::Pool width
};

// Names in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

// The named workload; throws std::invalid_argument for an unknown name.
// `nproc` caps the sweep width (the benchmark never oversubscribes).
Workload make_workload(std::string_view name, int nproc);

// Stable identity of a Spec in the reference file: app, method, machine,
// scale, steps and problem size. Unique within every workload.
std::string spec_key(const imc::workflow::Spec& spec);

// Submission order of `n` specs in pass `pass` of a run with `seed`: a
// Fisher-Yates permutation driven by splitmix64, identical on every
// platform and standard library. Each pass gets its own order, so a run
// samples several allocator histories and job overlaps.
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed,
                                     std::uint64_t pass);

}  // namespace wfbench
