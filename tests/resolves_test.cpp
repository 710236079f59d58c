// Tests for the Table IV "suggested resolve" extensions: each one must make
// the corresponding failure mode disappear, at its documented cost.
#include <gtest/gtest.h>

#include "common/units.h"
#include "hpc/cluster.h"
#include "net/drc.h"
#include "net/fabric.h"
#include "net/transport.h"
#include "sim/engine.h"
#include "workflow/workflow.h"

namespace imc {
namespace {

using workflow::AppSel;
using workflow::MethodSel;
using workflow::Spec;

// --- RDMA wait-and-retry ----------------------------------------------------

Spec rdma_pressure_spec() {
  // Laplace at 128 MB/proc with a deployment where one version fits the
  // registered pool but two do not: the vanilla build dies when version v
  // starts arriving while v-1 is still pinned.
  Spec spec;
  spec.app = AppSel::kLaplace;
  spec.method = MethodSel::kDataspacesNative;
  spec.machine = hpc::titan();
  spec.nsim = 32;
  spec.nana = 16;
  spec.steps = 3;
  spec.num_servers = 4;
  spec.servers_per_node = 1;
  return spec;
}

TEST(RdmaWaitRetry, VanillaBuildCrashesUnderRegistrationPressure) {
  auto result = workflow::run(rdma_pressure_spec());
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.failure_summary().find("OUT_OF_RDMA"), std::string::npos);
}

TEST(RdmaWaitRetry, RetryingBuildSurvives) {
  Spec spec = rdma_pressure_spec();
  spec.rdma_wait_retry = true;
  auto result = workflow::run(spec);
  EXPECT_TRUE(result.ok) << result.failure_summary();
  // The cost: puts wait for eviction, so staging time is visible.
  EXPECT_GT(result.sim_staging, 0.0);
}

TEST(RdmaWaitRetry, RetryGivesUpWhenMemoryCanNeverFree) {
  // If even a single version exceeds the pool, waiting cannot help; the
  // retry loop must terminate with the original error, not hang.
  Spec spec = rdma_pressure_spec();
  spec.num_servers = 2;  // 2 GB/version/server: never fits 1843 MiB
  spec.steps = 1;
  spec.rdma_wait_retry = true;
  auto result = workflow::run(spec);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.failure_summary().find("OUT_OF_RDMA"), std::string::npos);
}

// --- Socket pooling -----------------------------------------------------------

TEST(SocketPooling, AvoidsDescriptorExhaustionAtScale) {
  Spec spec;
  spec.app = AppSel::kLammps;
  spec.method = MethodSel::kDataspacesNative;
  spec.machine = hpc::titan();
  spec.machine.socket_descriptors_per_node = 512;
  spec.nsim = 256;
  spec.nana = 128;
  spec.steps = 1;
  spec.transport = Spec::Transport::kSockets;

  auto vanilla = workflow::run(spec);
  EXPECT_FALSE(vanilla.ok);
  EXPECT_NE(vanilla.failure_summary().find("OUT_OF_SOCKETS"),
            std::string::npos);

  spec.socket_pooling = true;
  auto pooled = workflow::run(spec);
  EXPECT_TRUE(pooled.ok) << pooled.failure_summary();
  // Descriptor usage bounded by node pairs, far below the per-process count.
  EXPECT_LT(pooled.socket_peak, 512);
}

TEST(SocketPooling, CostsLatencyUnderConcurrency) {
  // Many concurrent small messages between one node pair: per-connection
  // sockets overlap their per-message costs; the 2-stream pool serializes
  // them ("this may compromise the data movement efficiency", Table IV).
  auto run_transfers = [](bool pooled) -> double {
    sim::Engine engine;
    auto machine = hpc::titan();
    hpc::Cluster cluster(machine);
    cluster.allocate_nodes(2);
    net::Fabric fabric(engine, machine);
    net::SocketTransport transport(engine, fabric, pooled);
    double last_done = 0;
    for (int i = 0; i < 16; ++i) {
      engine.spawn([](sim::Engine& e, net::SocketTransport& t, int pid,
                      hpc::Cluster& c, double& out) -> sim::Task<> {
        net::Endpoint from{pid, 0, &c.node(0)};
        net::Endpoint to{pid + 100, 1, &c.node(1)};
        EXPECT_TRUE((co_await t.connect(from, to)).is_ok());
        for (int m = 0; m < 4; ++m) {
          EXPECT_TRUE((co_await t.transfer(from, to, 4 * kKiB, {})).is_ok());
        }
        out = std::max(out, e.now());
      }(engine, transport, 1000 + i, cluster, last_done));
    }
    engine.run();
    return last_done;
  };

  const double pooled_done = run_transfers(true);
  const double plain_done = run_transfers(false);
  EXPECT_GT(pooled_done, plain_done * 1.5)
      << "pool serialization should cost wall-clock";
}

// --- DRC metering -------------------------------------------------------------

TEST(DrcMetering, QueuesInsteadOfShedding) {
  sim::Engine engine;
  auto machine = hpc::cori_knl();
  machine.drc_capacity = 10;
  net::DrcService metered(engine, machine, /*metered=*/true);
  int ok = 0, failed = 0;
  for (int pid = 0; pid < 100; ++pid) {
    engine.spawn([](net::DrcService& d, int pid, int& ok,
                    int& failed) -> sim::Task<> {
      Status st = co_await d.acquire(pid, 0, pid % 4);
      (st.is_ok() ? ok : failed) += 1;
    }(metered, pid, ok, failed));
  }
  engine.run();
  EXPECT_EQ(ok, 100);
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(metered.rejected(), 0u);
  // The cost: startup serialized through the capacity window.
  EXPECT_GT(engine.now(), 99 * machine.drc_service_time);
}

TEST(DrcMetering, WorkflowSurvivesOverloadScale) {
  Spec spec;
  spec.app = AppSel::kLammps;
  spec.method = MethodSel::kDataspacesNative;
  spec.machine = hpc::cori_knl();
  spec.machine.drc_capacity = 64;
  spec.nsim = 128;
  spec.nana = 64;
  spec.steps = 1;

  auto vanilla = workflow::run(spec);
  EXPECT_FALSE(vanilla.ok);
  EXPECT_NE(vanilla.failure_summary().find("DRC_OVERLOAD"), std::string::npos);

  spec.drc_metered = true;
  auto metered = workflow::run(spec);
  EXPECT_TRUE(metered.ok) << metered.failure_summary();
  // The cost: slower startup than an uncontended run.
  EXPECT_GT(metered.end_to_end, 0.0);
}

// --- GPU residency (§IV-B extension) -----------------------------------------

TEST(GpuStaging, PcieBounceAddsTimeGpudirectRemovesIt) {
  Spec spec;
  spec.app = AppSel::kLammps;
  spec.method = MethodSel::kDataspacesNative;
  spec.machine = hpc::titan();
  spec.nsim = 16;
  spec.nana = 8;
  spec.steps = 2;

  auto host = workflow::run(spec);
  spec.gpu_resident_output = true;
  auto gpu = workflow::run(spec);
  spec.use_gpudirect = true;
  auto gpudirect = workflow::run(spec);

  ASSERT_TRUE(host.ok && gpu.ok && gpudirect.ok);
  EXPECT_DOUBLE_EQ(host.gpu_copy_time, 0.0);
  // 2 steps x 20 MB over 6 GB/s PCIe ~= 6.8 ms per rank.
  EXPECT_NEAR(gpu.gpu_copy_time, 2 * 20.48e6 / 6e9, 1e-4);
  EXPECT_GT(gpu.end_to_end, host.end_to_end);
  EXPECT_DOUBLE_EQ(gpudirect.gpu_copy_time, 0.0);
  EXPECT_LT(gpudirect.end_to_end, gpu.end_to_end);
}

TEST(GpuStaging, RejectedOnMachinesWithoutGpus) {
  Spec spec;
  spec.app = AppSel::kLammps;
  spec.method = MethodSel::kDataspacesNative;
  spec.machine = hpc::cori_knl();
  spec.nsim = 8;
  spec.nana = 4;
  spec.gpu_resident_output = true;
  auto result = workflow::run(spec);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.failure_summary().find("has no GPUs"), std::string::npos);
}

}  // namespace
}  // namespace imc
