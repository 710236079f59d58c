// Machine descriptions for the two supercomputers the paper evaluates on,
// plus a small deterministic testbed for unit tests.
//
// Every constant here is either taken directly from the paper (§III-A,
// §III-B1, Fig. 4) or from the cited public system documentation:
//   Titan:  16-core 2.2 GHz AMD Opteron, 32 GB/node, Gemini 3D torus,
//           5.5 GB/s injection, Lustre 32 PB / 1 TB/s peak, 4 MDS,
//           1843 MB registered-RDMA capacity per node, <=3675 concurrent
//           RDMA memory handlers (Fig. 4), no node sharing between jobs.
//   Cori:   KNL 68-core 1.4 GHz (CPU frequency = 63.6% of Titan), 96 GB/node,
//           Aries dragonfly, 15.6 GB/s injection, Lustre 248 OSTs /
//           744 GB/s peak, 1 MDS, DRC required for cross-job RDMA, node
//           sharing allowed but no heterogeneous MPI launch.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.h"

namespace imc::hpc {

enum class FabricType { kGemini, kAries, kGeneric };

struct MachineConfig {
  std::string name;

  // Compute.
  int cores_per_node = 16;
  double cpu_speed = 1.0;  // relative to Titan's 2.2 GHz Opteron

  // Memory.
  std::uint64_t memory_per_node = 32ull * kGiB;

  // Interconnect.
  FabricType fabric = FabricType::kGeneric;
  double injection_bandwidth = 5.5 * kGB;  // bytes/s per node, each direction
  double link_latency = 1.5e-6;            // base seconds per message
  // Topology-dependent per-hop latency. Gemini routes through a 3-D torus
  // (Titan's is 25x16x24 Gemini ASICs); Aries dragonfly reaches any node in
  // at most 3 router hops (2 inside a group).
  double hop_latency = 60e-9;
  int torus_x = 25, torus_y = 16, torus_z = 24;
  int dragonfly_group_nodes = 384;

  // Accelerators. The paper (§IV-B) notes the staging libraries assume
  // host-memory staging: GPU-resident output must cross PCIe before any
  // put. gpudirect_support models the future-work path (NVLink/GPUDirect)
  // where the NIC reads device memory directly.
  std::uint64_t gpu_memory_per_node = 0;
  double gpu_copy_bandwidth = 6.0 * kGB;  // PCIe device-to-host
  bool gpudirect_support = false;

  // RDMA resource limits (paper Fig. 4 and §III-B1).
  std::uint64_t rdma_memory_per_node = 1843ull * kMiB;
  std::uint64_t rdma_handlers_per_node = 3675;
  std::uint64_t rdma_small_request = 512ull * kKiB;  // below: handler-bound

  // DRC: dynamic RDMA credentials (Cori only). A single credential service
  // that each communicating process must contact before RDMA; it can serve
  // a bounded number of outstanding requests.
  bool requires_drc = false;
  int drc_capacity = 4096;       // simultaneous requests before overload
  double drc_service_time = 2e-3;  // per credential grant
  bool drc_node_insecure = false;  // allow shared-node credential reuse

  // TCP.
  int socket_descriptors_per_node = 1024;
  double socket_copy_bandwidth = 1.2 * kGB;  // memory-copy ceiling per stream
  double socket_setup_time = 200e-6;         // connection establishment

  // Shared-memory transport between colocated executables.
  double shm_bandwidth = 8.0 * kGB;
  double shm_latency = 0.5e-6;

  // Lustre.
  int lustre_osts = 1008;
  double ost_bandwidth = 1.0 * kTB / 1008;  // per-OST bytes/s
  int lustre_mds_count = 4;
  double mds_op_time = 0.5e-3;  // seconds per metadata operation

  // Scheduling policy (paper §III-B7).
  bool allows_node_sharing = false;      // two executables on one node
  bool supports_heterogeneous = false;   // multiple jobs in one communicator

  // Derived helpers.
  double relative_compute_time(double titan_seconds) const {
    return titan_seconds / cpu_speed;
  }
};

// ORNL Titan (Cray XK7).
MachineConfig titan();

// NERSC Cori KNL partition (Cray XC40).
MachineConfig cori_knl();

// A small, fast, deterministic machine for unit tests: tiny resource limits
// so exhaustion paths are exercised with small inputs.
MachineConfig testbed();

}  // namespace imc::hpc
