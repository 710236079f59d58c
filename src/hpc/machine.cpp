#include "hpc/machine.h"

namespace imc::hpc {

MachineConfig titan() {
  MachineConfig m;
  m.name = "titan";
  m.cores_per_node = 16;
  m.cpu_speed = 1.0;  // 2.2 GHz Opteron is the reference
  m.memory_per_node = 32ull * kGiB;
  m.fabric = FabricType::kGemini;
  m.injection_bandwidth = 5.5 * kGB;  // paper §III-A
  m.link_latency = 1.5e-6;
  // One NVIDIA K20X per node: 6 GB GDDR5, PCIe gen2 x16 (~6 GB/s D2H).
  m.gpu_memory_per_node = 6ull * kGiB;
  m.gpu_copy_bandwidth = 6.0 * kGB;
  m.rdma_memory_per_node = 1843ull * kMiB;  // paper §III-B1
  m.rdma_handlers_per_node = 3675;          // paper Fig. 4
  m.requires_drc = false;
  m.socket_descriptors_per_node = 4096;
  m.socket_copy_bandwidth = 2.5 * kGB;  // kernel TCP copy path (Fig. 10:
                                        // sockets lose ~8-17%, not 4x)
  m.lustre_osts = 1008;
  m.ost_bandwidth = 1.0 * kTB / 1008;  // 1 TB/s aggregate peak
  m.lustre_mds_count = 4;  // paper §III-B1: four MDS on Titan
  m.shm_bandwidth = 12.0 * kGB;   // node-local copy beats the 5.5 GB/s NIC
  m.allows_node_sharing = false;  // paper §III-B7
  m.supports_heterogeneous = false;
  return m;
}

MachineConfig cori_knl() {
  MachineConfig m;
  m.name = "cori-knl";
  m.cores_per_node = 68;
  m.cpu_speed = 0.636;  // paper §III-B1: "CPU frequency of Cori is only
                        // 63.6% of Titan" (1.4 GHz / 2.2 GHz)
  m.memory_per_node = 96ull * kGiB;
  m.fabric = FabricType::kAries;
  m.injection_bandwidth = 15.6 * kGB;  // paper §III-A
  m.link_latency = 1.0e-6;
  // Aries exposes a larger registered-memory pool; the binding constraint on
  // Cori in the paper is DRC, not registration capacity.
  m.rdma_memory_per_node = 16ull * kGiB;
  m.rdma_handlers_per_node = 16384;
  m.requires_drc = true;
  m.drc_capacity = 4096;  // large runs (8192+4096 ranks) overwhelm it
  m.drc_service_time = 0.5e-3;
  m.socket_descriptors_per_node = 4096;
  // KNL's TCP path over Aries moves bulk data near NIC speed (jumbo frames,
  // wide vector copies); Titan's older stack is far slower.
  m.socket_copy_bandwidth = 12.0 * kGB;
  m.lustre_osts = 248;                  // paper §III-A
  m.ost_bandwidth = 744.0 * kGB / 248;  // 744 GB/s aggregate peak
  m.lustre_mds_count = 1;  // paper §III-B1: one MDS on Cori
  m.shm_bandwidth = 30.0 * kGB;  // MCDRAM-backed copies beat the NIC
  m.allows_node_sharing = true;   // paper §III-B7
  m.supports_heterogeneous = false;  // "does not support heterogeneous
                                     // running" (Decaf cannot share)
  return m;
}

MachineConfig testbed() {
  MachineConfig m;
  m.name = "testbed";
  m.cores_per_node = 4;
  m.cpu_speed = 1.0;
  m.memory_per_node = 64ull * kMiB;
  m.fabric = FabricType::kGeneric;
  m.injection_bandwidth = 1.0 * kGB;
  m.link_latency = 1e-6;
  m.rdma_memory_per_node = 8ull * kMiB;
  m.rdma_handlers_per_node = 16;
  m.rdma_small_request = 4ull * kKiB;
  m.requires_drc = false;
  m.drc_capacity = 8;
  m.socket_descriptors_per_node = 8;
  m.lustre_osts = 4;
  m.ost_bandwidth = 250.0 * kMB;
  m.lustre_mds_count = 1;
  m.mds_op_time = 1e-3;
  m.allows_node_sharing = true;
  m.supports_heterogeneous = true;
  return m;
}

}  // namespace imc::hpc
