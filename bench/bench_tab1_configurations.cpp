// Tables I and II: the build/runtime configuration surface of each method
// and the workflow descriptions. Every runtime value a Config holds is
// printed from it, so the table stays in sync with the code; build flags
// and fixed behaviour (MPI-IO striping, Decaf's by-count routing) are text.
#include <cstdio>

#include "apps/apps.h"
#include "bench_util.h"
#include "dataspaces/dataspaces.h"
#include "dimes/dimes.h"
#include "flexpath/flexpath.h"

using namespace imc;

int main() {
  bench::print_banner("Tables I & II",
                      "build/runtime configurations and workflows");

  std::printf("\n--- Table I: build and runtime configurations ---\n");
  {
    dataspaces::Config c;
    std::printf("DataSpaces/ADIOS + DIMES/ADIOS:\n");
    std::printf("  build:   -with-dataspaces -with-dimes -with-flexpath "
                "-with-dimes-rdma-buffer-size=1024 -enable-drc\n");
    std::printf("  runtime: lock_type=%d, hash_version=%d, max_versions=%d, "
                "servers_per_node=%d\n",
                c.lock_type, c.hash_version, c.max_versions,
                c.servers_per_node);
  }
  {
    dimes::Config c;
    std::printf("DataSpaces/native + DIMES/native:\n");
    std::printf("  build:   -enable-dimes -enable-drc "
                "-with-dimes-rdma-buffer-size=2048\n");
    std::printf("  runtime: dimes servers=%d, rdma_buffer=%llu MiB, "
                "per-object metadata=%llu B\n",
                c.num_servers,
                static_cast<unsigned long long>(c.rdma_buffer_bytes / kMiB),
                static_cast<unsigned long long>(c.per_object_meta_bytes));
  }
  std::printf("MPI-IO/ADIOS:\n");
  std::printf("  build:   -with-mxml\n");
  std::printf("  runtime: lfs setstripe -stripe-size 1m -stripe-count -1, "
              "ADIOS XML: stats=off\n");
  {
    flexpath::Config c;
    std::printf("Flexpath/ADIOS:\n");
    std::printf("  build:   -with-flexpath (EVPath)\n");
    std::printf("  runtime: CMTransport=nnti, ADIOS XML: queue_size=%d\n",
                c.queue_size);
  }
  // Text, not a Config field: decaf::Dataflow routes by count on both edges.
  std::printf("Decaf:\n");
  std::printf("  build:   transport_mpi=on, build_bredala=on, "
              "build_manala=on\n");
  std::printf("  runtime: prod_dflow_redist='count', "
              "dflow_con_redist='count'\n");

  std::printf("\n--- Table II: workflow descriptions ---\n");
  {
    apps::LammpsSim sim(apps::LammpsSim::Params{.rank = 0, .nprocs = 64});
    const auto var = sim.output_desc(0);
    std::printf("LAMMPS:    LJ-melt MD simulation + mean squared "
                "displacement (MSD)\n");
    std::printf("           output: %llu x nprocs x %llu doubles "
                "(%.1f MB per proc at nprocs=64)\n",
                static_cast<unsigned long long>(var.global[0]),
                static_cast<unsigned long long>(var.global[2]),
                static_cast<double>(sim.my_box().volume() * 8) / 1e6);
  }
  {
    apps::LaplaceSim sim(apps::LaplaceSim::Params{.rank = 0, .nprocs = 64});
    std::printf("Laplace:   Jacobi solver on a rectangle + n-th moment "
                "turbulence analysis (MTA)\n");
    std::printf("           output: %llu x nprocs x %llu doubles "
                "(%.1f MB per proc)\n",
                static_cast<unsigned long long>(sim.output_desc(0).global[0]),
                static_cast<unsigned long long>(
                    apps::LaplaceSim::Params{}.cols_per_proc),
                static_cast<double>(sim.my_box().volume() * 8) / 1e6);
  }
  {
    apps::SyntheticWriter w(apps::SyntheticWriter::Params{.nprocs = 8});
    std::printf("Synthetic: MPI writer/reader with configurable 3-D array "
                "and decomposition (global %s at nprocs=8)\n",
                nda::Box::whole(w.output_desc(0).global).to_string().c_str());
  }
  return 0;
}
