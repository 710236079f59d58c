// The ADIOS decorator over the DataSpaces and DIMES step clients (the
// MPI-IO client is covered in adios_test.cpp): put/commit/get round trips
// behind the framework, including the umbrella header.
#include <gtest/gtest.h>

#include "imc.h"

namespace imc::adios {
namespace {

struct StagingIoFixture : ::testing::Test {
  StagingIoFixture()
      : machine(hpc::titan()), cluster(machine), fabric(engine, machine),
        ugni(engine, fabric, net::TransportKind::kRdmaUgni) {
    config.buffer_bytes = 8 * kMiB;
  }

  // A client endpoint on a fresh node.
  net::Endpoint endpoint(int pid, int job) {
    return net::Endpoint{pid, job, &cluster.node(cluster.allocate_nodes(1)[0])};
  }

  void run_all() {
    engine.run();
    ASSERT_TRUE(engine.process_failures().empty())
        << engine.process_failures()[0];
  }

  sim::Engine engine;
  hpc::MachineConfig machine;
  hpc::Cluster cluster;
  net::Fabric fabric;
  net::RdmaTransport ugni;
  AdiosConfig config;
};

TEST_F(StagingIoFixture, DataspacesRoundTripThroughTheFramework) {
  dataspaces::Config ds_config;
  ds_config.num_servers = 2;
  dataspaces::DataSpaces ds(engine, cluster, ugni, ds_config);
  ASSERT_TRUE(ds.deploy(cluster.allocate_nodes(1)).is_ok());

  mem::ProcessMemory wmem(engine, "w"), rmem(engine, "r");
  using Client = staging::VersionedClient<dataspaces::DataSpaces>;
  Io writer(engine, config,
            std::make_unique<Client>(ds, endpoint(1, 0), wmem), wmem);
  Io reader(engine, config,
            std::make_unique<Client>(ds, endpoint(2, 1), rmem), rmem);

  const nda::Dims dims = {32, 32};
  nda::Slab source = nda::Slab::synthetic(nda::Box::whole(dims), 7);

  engine.spawn([](Io& w, nda::Dims dims, nda::Slab src) -> sim::Task<> {
    nda::VarDesc var{"u", dims, 0};
    EXPECT_TRUE((co_await w.open()).is_ok());
    EXPECT_TRUE((co_await w.put(var, src)).is_ok());
    EXPECT_TRUE((co_await w.end_step(0)).is_ok());
    EXPECT_TRUE((co_await w.commit(var)).is_ok());
  }(writer, dims, source));
  engine.spawn([](Io& r, nda::Dims dims, nda::Slab src) -> sim::Task<> {
    nda::VarDesc var{"u", dims, 0};
    EXPECT_TRUE((co_await r.open()).is_ok());
    nda::Box half({0, 0}, {16, 32});
    auto got = co_await r.get(var, half);
    EXPECT_TRUE(got.has_value()) << got.status();
    if (got.has_value()) {
      EXPECT_DOUBLE_EQ(got->checksum(), src.extract(half).checksum());
    }
  }(reader, dims, source));
  run_all();
}

TEST_F(StagingIoFixture, DimesRoundTripThroughTheFramework) {
  dimes::Config dm_config;
  dimes::Dimes dm(engine, cluster, ugni, dm_config);
  ASSERT_TRUE(dm.deploy(cluster.allocate_nodes(2)).is_ok());

  mem::ProcessMemory wmem(engine, "w"), rmem(engine, "r");
  using Client = staging::VersionedClient<dimes::Dimes>;
  Io writer(engine, config,
            std::make_unique<Client>(dm, endpoint(1, 0), wmem), wmem);
  Io reader(engine, config,
            std::make_unique<Client>(dm, endpoint(2, 1), rmem), rmem);

  const nda::Dims dims = {16, 48};
  nda::Slab source = nda::Slab::synthetic(nda::Box::whole(dims), 9);
  bool writer_done = false;

  engine.spawn([](sim::Engine& e, Io& w, nda::Dims dims, nda::Slab src,
                  bool& done) -> sim::Task<> {
    nda::VarDesc var{"u", dims, 2};
    EXPECT_TRUE((co_await w.open()).is_ok());
    EXPECT_TRUE((co_await w.put(var, src)).is_ok());
    EXPECT_TRUE((co_await w.end_step(2)).is_ok());
    EXPECT_TRUE((co_await w.commit(var)).is_ok());
    // DIMES data lives in this writer's memory: stay alive for the reader.
    while (!done) co_await e.sleep(1e-3);
  }(engine, writer, dims, source, writer_done));
  engine.spawn([](Io& r, nda::Dims dims, nda::Slab src,
                  bool& done) -> sim::Task<> {
    nda::VarDesc var{"u", dims, 2};
    EXPECT_TRUE((co_await r.open()).is_ok());
    nda::Box whole = nda::Box::whole(dims);
    auto got = co_await r.get(var, whole);
    EXPECT_TRUE(got.has_value()) << got.status();
    if (got.has_value()) {
      EXPECT_DOUBLE_EQ(got->checksum(), src.checksum());
    }
    done = true;
  }(reader, dims, source, writer_done));
  run_all();
  EXPECT_TRUE(writer_done);
}

TEST_F(StagingIoFixture, AdiosAddsStatsCostOverNative) {
  // The framework's min/max statistics pass is what puts the ADIOS curves
  // in Fig. 2 slightly above the native ones: the same client staged
  // through the decorator takes exactly the scan longer.
  config.stats = true;
  dataspaces::Config ds_config;
  ds_config.num_servers = 1;
  dataspaces::DataSpaces ds(engine, cluster, ugni, ds_config);
  ASSERT_TRUE(ds.deploy(cluster.allocate_nodes(1)).is_ok());
  mem::ProcessMemory fmem(engine, "framework"), nmem(engine, "native");
  using Client = staging::VersionedClient<dataspaces::DataSpaces>;
  hpc::Node* node = &cluster.node(cluster.allocate_nodes(1)[0]);
  Io framework(engine, config,
               std::make_unique<Client>(ds, net::Endpoint{1, 0, node}, fmem),
               fmem);
  Client native(ds, net::Endpoint{2, 0, node}, nmem);

  double framework_time = 0, native_time = 0;
  engine.spawn([](sim::Engine& e, staging::Client& c, int version,
                  double& elapsed) -> sim::Task<> {
    const nda::Dims dims = {256, 256};
    nda::Slab content = nda::Slab::synthetic(nda::Box::whole(dims), 1);
    nda::VarDesc var{"u", dims, version};
    EXPECT_TRUE((co_await c.open()).is_ok());
    const double t0 = e.now();
    EXPECT_TRUE((co_await c.put(var, content)).is_ok());
    EXPECT_TRUE((co_await c.end_step(version)).is_ok());
    elapsed = e.now() - t0;
  }(engine, framework, 0, framework_time));
  engine.run();
  engine.spawn([](sim::Engine& e, staging::Client& c, int version,
                  double& elapsed) -> sim::Task<> {
    const nda::Dims dims = {256, 256};
    nda::Slab content = nda::Slab::synthetic(nda::Box::whole(dims), 1);
    nda::VarDesc var{"u", dims, version};
    EXPECT_TRUE((co_await c.open()).is_ok());
    const double t0 = e.now();
    EXPECT_TRUE((co_await c.put(var, content)).is_ok());
    EXPECT_TRUE((co_await c.end_step(version)).is_ok());
    elapsed = e.now() - t0;
  }(engine, native, 1, native_time));
  run_all();
  const double scan = 256.0 * 256.0 * nda::kElementBytes / 10e9;
  EXPECT_NEAR(framework_time - native_time, scan, 1e-9 * scan);
}

}  // namespace
}  // namespace imc::adios
