#include "workloads.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "common/rng.h"
#include "hpc/machine.h"

namespace wfbench {

using imc::workflow::AppSel;
using imc::workflow::MethodSel;
using imc::workflow::Spec;

namespace {

constexpr MethodSel kAllMethods[] = {
    MethodSel::kMpiIo,           MethodSel::kDataspacesAdios,
    MethodSel::kDataspacesNative, MethodSel::kDimesAdios,
    MethodSel::kDimesNative,     MethodSel::kFlexpath,
    MethodSel::kDecaf};
// One build of each library: the native APIs plus the ADIOS-only Flexpath.
constexpr MethodSel kNativeMethods[] = {
    MethodSel::kMpiIo, MethodSel::kDataspacesNative, MethodSel::kDimesNative,
    MethodSel::kFlexpath, MethodSel::kDecaf};

Spec lammps(const imc::hpc::MachineConfig& machine, int nsim, int nana,
            MethodSel method) {
  Spec spec;
  spec.app = AppSel::kLammps;
  spec.method = method;
  spec.machine = machine;
  spec.nsim = nsim;
  spec.nana = nana;
  return spec;  // paper size: 512000 atoms (20 MB) per rank, 3 steps
}

Spec laplace(int cells, MethodSel method) {
  Spec spec;
  spec.app = AppSel::kLaplace;
  spec.method = method;
  spec.machine = imc::hpc::titan();
  spec.nsim = 64;
  spec.nana = 32;
  spec.steps = 2;
  spec.laplace_rows = static_cast<std::uint64_t>(cells);
  spec.laplace_cols_per_proc = static_cast<std::uint64_t>(cells);
  return spec;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "laplace-content", "lammps-staging", "sweep-mixed"};
  return names;
}

Workload make_workload(std::string_view name, int nproc) {
  Workload w;
  w.name = std::string(name);
  const auto titan = imc::hpc::titan();
  const auto cori = imc::hpc::cori_knl();
  if (name == "laplace-content") {
    for (int cells : {512, 1024}) {
      for (MethodSel m : kNativeMethods) w.specs.push_back(laplace(cells, m));
    }
  } else if (name == "lammps-staging") {
    for (const auto* machine : {&titan, &cori}) {
      for (auto [nsim, nana] : {std::pair{256, 128}, std::pair{512, 256}}) {
        for (MethodSel m : kAllMethods) {
          w.specs.push_back(lammps(*machine, nsim, nana, m));
        }
      }
    }
  } else if (name == "sweep-mixed") {
    for (const auto* machine : {&titan, &cori}) {
      for (auto [nsim, nana] : {std::pair{32, 16}, std::pair{64, 32}}) {
        for (MethodSel m : kAllMethods) {
          w.specs.push_back(lammps(*machine, nsim, nana, m));
        }
      }
    }
    for (MethodSel m : kNativeMethods) w.specs.push_back(laplace(512, m));
    for (MethodSel m : kAllMethods) w.specs.push_back(lammps(titan, 512, 256, m));
    w.threads = std::clamp(nproc, 1, 4);
  } else {
    throw std::invalid_argument("unknown workload: " + std::string(name));
  }
  return w;
}

std::string spec_key(const Spec& spec) {
  std::string key = std::string(imc::workflow::to_string(spec.app)) + "|" +
                    std::string(imc::workflow::to_string(spec.method)) + "|" +
                    spec.machine.name + "|" + std::to_string(spec.nsim) + "x" +
                    std::to_string(spec.nana) + "|steps=" +
                    std::to_string(spec.steps) + "|";
  if (spec.app == AppSel::kLaplace) {
    key += std::to_string(spec.laplace_rows) + "x" +
           std::to_string(spec.laplace_cols_per_proc);
  } else {
    key += "atoms=" + std::to_string(spec.lammps_atoms_per_proc);
  }
  return key;
}

std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed,
                                     std::uint64_t pass) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::uint64_t state = imc::splitmix64(imc::splitmix64(seed) + pass);
  for (std::size_t i = n; i > 1; --i) {
    state = imc::splitmix64(state);
    std::swap(order[i - 1], order[state % i]);
  }
  return order;
}

}  // namespace wfbench
