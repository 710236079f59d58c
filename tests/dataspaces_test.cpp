#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/units.h"
#include "dataspaces/dataspaces.h"
#include "dataspaces/regions.h"
#include "hpc/cluster.h"
#include "net/fabric.h"
#include "net/transport.h"
#include "sim/engine.h"

namespace imc::dataspaces {
namespace {

using nda::Box;
using nda::Dims;
using nda::Slab;
using nda::VarDesc;

TEST(Regions, CountIsNextPowerOfTwoOfServers) {
  EXPECT_EQ(region_count({4, 1000}, 1), 1);
  EXPECT_EQ(region_count({4, 1000}, 2), 2);
  EXPECT_EQ(region_count({4, 1000}, 3), 4);  // 2^ceil(log2 3)
  EXPECT_EQ(region_count({4, 1000}, 5), 8);
  EXPECT_EQ(region_count({4, 1000}, 8), 8);
}

TEST(Regions, ClampedToLongestExtent) {
  EXPECT_EQ(region_count({4, 4}, 8), 4);
}

TEST(Regions, CutAlongLongestDimension) {
  // The paper: DataSpaces decomposes in the longest dimension — for the
  // LAMMPS output 5 x nprocs x 512000 that is dimension 2, NOT the
  // dimension LAMMPS itself scales in (dimension 1). This mismatch is
  // Finding 3.
  auto regions = staging_regions({5, 32, 512000}, 4);
  ASSERT_EQ(regions.size(), 4u);
  for (const auto& r : regions) {
    EXPECT_EQ(r.extent(0), 5u);       // full
    EXPECT_EQ(r.extent(1), 32u);      // full
    EXPECT_EQ(r.extent(2), 128000u);  // quarter of the longest dim
  }
  EXPECT_EQ(regions[1].lb[2], 128000u);
}

TEST(Regions, SequentialServerAssignment) {
  EXPECT_EQ(server_of_region(0, 4), 0);
  EXPECT_EQ(server_of_region(3, 4), 3);
  EXPECT_EQ(server_of_region(5, 4), 1);  // 8 regions on 4 servers wrap
}

TEST(Regions, IndexOrderStrictlyGreater) {
  // Paper: "2^k greater than the size of the longest dimension", so
  // 131072 = 2^17 -> k = 18 (side 262144), as in the paper's example.
  EXPECT_EQ(index_order(131072), 18);
  EXPECT_EQ(index_order(131071), 17);
  EXPECT_EQ(index_order(512000), 19);
}

TEST(Regions, IndexCubeMemoryMatchesPaperCalibration) {
  // Fig. 6: global 4096 x 131072, 4 servers -> ~6 GB per server.
  const std::uint64_t bytes = index_bytes_per_server({4096, 131072}, 4);
  EXPECT_NEAR(static_cast<double>(bytes), 6.0e9, 0.1e9);
}

TEST(Regions, IndexGrowsQuadraticallyWithLongestDim) {
  const auto b1 = index_bytes_per_server({4096, 32768}, 4);
  const auto b2 = index_bytes_per_server({4096, 65536}, 4);
  EXPECT_NEAR(static_cast<double>(b2) / static_cast<double>(b1), 4.0, 0.01);
}

TEST(Regions, RankThreeUsesPerObjectEntries) {
  EXPECT_FALSE(index_uses_cube({5, 32, 512000}));
  EXPECT_TRUE(index_uses_cube({4096, 131072}));
  EXPECT_EQ(index_bytes_for_object(1000), 4000u);
}

// ---------------------------------------------------------------------------

struct DsFixture : ::testing::Test {
  DsFixture()
      : config(hpc::titan()), cluster(config), fabric(engine, config),
        ugni(engine, fabric, net::TransportKind::kRdmaUgni) {}

  // Deploys a DataSpaces instance with `ns` servers on fresh staging nodes.
  std::unique_ptr<DataSpaces> deploy(int ns, Config ds_config = {},
                                     net::Transport* transport = nullptr) {
    ds_config.num_servers = ns;
    auto ds = std::make_unique<DataSpaces>(
        engine, cluster, transport ? *transport : ugni, ds_config);
    const int nodes =
        (ns + ds_config.servers_per_node - 1) / ds_config.servers_per_node;
    EXPECT_TRUE(ds->deploy(cluster.allocate_nodes(nodes)).is_ok());
    return ds;
  }

  // One client rank on a fresh node with its own memory accounting.
  struct Rank {
    net::Endpoint ep;
    std::unique_ptr<mem::ProcessMemory> memory;
    std::unique_ptr<DataSpaces::Client> client;
  };
  Rank make_rank(DataSpaces& ds, int pid, int job = 0) {
    const int node = cluster.allocate_nodes(1)[0];
    Rank r;
    r.ep = net::Endpoint{pid, job, &cluster.node(node)};
    r.memory = std::make_unique<mem::ProcessMemory>(
        engine, "rank" + std::to_string(pid));
    r.client = std::make_unique<DataSpaces::Client>(ds, r.ep, *r.memory);
    return r;
  }

  void run_all() {
    engine.run();
    ASSERT_TRUE(engine.process_failures().empty())
        << engine.process_failures()[0];
  }

  sim::Engine engine;
  hpc::MachineConfig config;
  hpc::Cluster cluster;
  net::Fabric fabric;
  net::RdmaTransport ugni;
};

TEST_F(DsFixture, PutGetRoundTripSingleWriterReader) {
  auto ds = deploy(2);
  auto writer = make_rank(*ds, 1);
  auto reader = make_rank(*ds, 2);
  const VarDesc var{"field", {8, 16}, 0};
  Slab source = Slab::synthetic(Box::whole(var.global), 11);

  engine.spawn([](DsFixture::Rank& w, VarDesc var, Slab src) -> sim::Task<> {
    EXPECT_TRUE((co_await w.client->init()).is_ok());
    EXPECT_TRUE((co_await w.client->put(var, src)).is_ok());
    EXPECT_TRUE((co_await w.client->publish(var)).is_ok());
  }(writer, var, source));
  engine.spawn([](DsFixture::Rank& r, VarDesc var, Slab src) -> sim::Task<> {
    EXPECT_TRUE((co_await r.client->init()).is_ok());
    EXPECT_TRUE((co_await r.client->wait_version(var.name, 0)).is_ok());
    auto got = co_await r.client->get(var, Box::whole(var.global));
    EXPECT_TRUE(got.has_value()) << got.status();
    if (got.has_value()) {
      EXPECT_DOUBLE_EQ(got->checksum(), src.checksum());
    }
  }(reader, var, source));
  run_all();
}

TEST_F(DsFixture, CrossDecompositionRedistribution) {
  // 4 writers decompose along dim 0; 2 readers along dim 1. Every reader
  // must see exactly the written content.
  auto ds = deploy(2);
  const VarDesc var{"grid", {12, 20}, 3};
  Slab source = Slab::synthetic(Box::whole(var.global), 21);
  auto writer_boxes = nda::decompose_1d(var.global, 4, 0);
  auto reader_boxes = nda::decompose_1d(var.global, 2, 1);

  std::vector<Rank> writers, readers;
  for (int i = 0; i < 4; ++i) writers.push_back(make_rank(*ds, 10 + i));
  for (int i = 0; i < 2; ++i) readers.push_back(make_rank(*ds, 20 + i));

  int puts_done = 0;
  for (int i = 0; i < 4; ++i) {
    engine.spawn([](DsFixture::Rank& w, VarDesc var, Slab piece,
                    int& done) -> sim::Task<> {
      EXPECT_TRUE((co_await w.client->init()).is_ok());
      EXPECT_TRUE((co_await w.client->put(var, piece)).is_ok());
      ++done;
    }(writers[static_cast<std::size_t>(i)], var,
      source.extract(writer_boxes[static_cast<std::size_t>(i)]), puts_done));
  }
  // Publisher waits until all writers finished (the workflow does this with
  // a barrier + root publish).
  engine.spawn([](sim::Engine& e, DsFixture::Rank& w, VarDesc var,
                  int& done) -> sim::Task<> {
    while (done < 4) co_await e.sleep(1e-3);
    EXPECT_TRUE((co_await w.client->publish(var)).is_ok());
  }(engine, writers[0], var, puts_done));

  for (int i = 0; i < 2; ++i) {
    engine.spawn([](DsFixture::Rank& r, VarDesc var, Slab expect,
                    Box want) -> sim::Task<> {
      EXPECT_TRUE((co_await r.client->init()).is_ok());
      EXPECT_TRUE((co_await r.client->wait_version(var.name, 3)).is_ok());
      auto got = co_await r.client->get(var, want);
      EXPECT_TRUE(got.has_value()) << got.status();
      if (got.has_value()) {
        EXPECT_DOUBLE_EQ(got->checksum(), expect.extract(want).checksum());
      }
    }(readers[static_cast<std::size_t>(i)], var, source,
      reader_boxes[static_cast<std::size_t>(i)]));
  }
  run_all();
}

TEST_F(DsFixture, GetBeforePublishWaits) {
  auto ds = deploy(1);
  auto writer = make_rank(*ds, 1);
  auto reader = make_rank(*ds, 2);
  const VarDesc var{"late", {4, 4}, 0};
  double reader_done = -1;

  engine.spawn([](sim::Engine& e, DsFixture::Rank& w, VarDesc var)
                   -> sim::Task<> {
    EXPECT_TRUE((co_await w.client->init()).is_ok());
    co_await e.sleep(5.0);  // writer is slow
    EXPECT_TRUE(
        (co_await w.client->put(var, Slab::zeros(Box::whole(var.global))))
            .is_ok());
    EXPECT_TRUE((co_await w.client->publish(var)).is_ok());
  }(engine, writer, var));
  engine.spawn([](sim::Engine& e, DsFixture::Rank& r, VarDesc var,
                  double& done) -> sim::Task<> {
    EXPECT_TRUE((co_await r.client->init()).is_ok());
    EXPECT_TRUE((co_await r.client->wait_version(var.name, 0)).is_ok());
    auto got = co_await r.client->get(var, Box::whole(var.global));
    EXPECT_TRUE(got.has_value());
    done = e.now();
  }(engine, reader, var, reader_done));
  run_all();
  EXPECT_GT(reader_done, 5.0);
}

TEST_F(DsFixture, GetUnstagedRegionFails) {
  auto ds = deploy(1);
  auto writer = make_rank(*ds, 1);
  const VarDesc var{"partial", {10, 10}, 0};
  engine.spawn([](DsFixture::Rank& w, VarDesc var) -> sim::Task<> {
    EXPECT_TRUE((co_await w.client->init()).is_ok());
    // Stage only the top half.
    nda::Dims half_lb = {0, 0};
    nda::Dims half_ub = {5, 10};
    Box half_box(half_lb, half_ub);
    Slab half = Slab::synthetic(half_box, 1);
    EXPECT_TRUE((co_await w.client->put(var, half)).is_ok());
    EXPECT_TRUE((co_await w.client->publish(var)).is_ok());
    auto whole = co_await w.client->get(var, Box::whole(var.global));
    EXPECT_EQ(whole.code(), ErrorCode::kNotFound);  // bottom half missing
    auto ok = co_await w.client->get(var, half_box);
    EXPECT_TRUE(ok.has_value());
  }(writer, var));
  run_all();
}

TEST_F(DsFixture, MaxVersionsEvictsOldData) {
  Config c;
  c.max_versions = 1;
  auto ds = deploy(1, c);
  auto writer = make_rank(*ds, 1);
  engine.spawn([](DsFixture::Rank& w, DataSpaces& ds) -> sim::Task<> {
    EXPECT_TRUE((co_await w.client->init()).is_ok());
    const nda::Dims dims = {16, 16};
    for (int v = 0; v < 3; ++v) {
      VarDesc var{"ts", dims, v};
      Slab content = Slab::synthetic(Box::whole(dims), 7);
      EXPECT_TRUE((co_await w.client->put(var, content)).is_ok());
      EXPECT_TRUE((co_await w.client->publish(var)).is_ok());
    }
    // Only the newest version remains staged.
    EXPECT_EQ(ds.total_staged_bytes(), 16u * 16 * 8);
    EXPECT_EQ(ds.server_stats(0).evicted_objects, 2u);
    // Old versions can no longer be read.
    VarDesc v0{"ts", dims, 0};
    VarDesc v2{"ts", dims, 2};
    auto old = co_await w.client->get(v0, Box::whole(dims));
    EXPECT_EQ(old.code(), ErrorCode::kNotFound);
    auto fresh = co_await w.client->get(v2, Box::whole(dims));
    EXPECT_TRUE(fresh.has_value());
  }(writer, *ds));
  run_all();
}

TEST_F(DsFixture, StagedObjectsStayRdmaRegistered) {
  auto ds = deploy(1);
  auto writer = make_rank(*ds, 1);
  const VarDesc var{"pinned", {64, 64}, 0};
  engine.spawn([](DsFixture::Rank& w, VarDesc var, DataSpaces& ds)
                   -> sim::Task<> {
    EXPECT_TRUE((co_await w.client->init()).is_ok());
    EXPECT_TRUE(
        (co_await w.client->put(var,
                                Slab::synthetic(Box::whole(var.global), 3)))
            .is_ok());
    // While staged: pinned on the server's node.
    EXPECT_EQ(ds.server_endpoint(0).node->rdma().bytes_used(), 64u * 64 * 8);
  }(writer, var, *ds));
  run_all();
}

TEST_F(DsFixture, PutFailsWhenStagingNodeOutOfRdmaMemory) {
  // Paper §III-B1: concurrent 128 MB puts exhaust the 1843 MB registered
  // memory on a staging node and the put fails (crashing the app).
  Config c;
  c.servers_per_node = 1;
  auto ds = deploy(1, c);
  auto writer = make_rank(*ds, 1);
  Status put_status;
  engine.spawn([](DsFixture::Rank& w, Status& out) -> sim::Task<> {
    EXPECT_TRUE((co_await w.client->init()).is_ok());
    // 15 x 128 MiB puts: the 15th exceeds 1843 MiB of registered memory.
    // (3-D geometry so the per-object index model applies, as for LAMMPS.)
    const nda::Dims dims = {2, 128, 65536};  // 128 MiB of doubles
    for (int v = 0; v < 15; ++v) {
      VarDesc var{"big" + std::to_string(v), dims, 0};
      Slab content = Slab::synthetic(Box::whole(dims), 1);
      out = co_await w.client->put(var, content);
      if (!out.is_ok()) break;
    }
  }(writer, put_status));
  run_all();
  EXPECT_EQ(put_status.code(), ErrorCode::kOutOfRdmaMemory);
  // The failed 15th attempt gives its per-object index entries back: only
  // the 14 staged objects stay charged (64 MiB of entries each).
  const std::uint64_t per_object = index_bytes_for_object(2ull * 128 * 65536);
  EXPECT_EQ(per_object, 67108864u);
  EXPECT_EQ(ds->server_stats(0).index_bytes, 939524096u);
  EXPECT_EQ(ds->server_stats(0).index_bytes, 14 * per_object);
  EXPECT_EQ(ds->server_memory(0).current(mem::Tag::kIndex), 14 * per_object);
}

TEST_F(DsFixture, FailedWaitRetryAttemptsLeaveNoIndexCharge) {
  // Table IV's wait-and-retry resolve: the 15th put retries until its
  // budget runs out. Every failed attempt must give its per-object index
  // entries back, so the charge stays that of the objects actually staged.
  Config c;
  c.servers_per_node = 1;
  c.wait_retry_registration = true;
  c.max_retry_attempts = 4;
  c.retry_interval_seconds = 0.01;
  auto ds = deploy(1, c);
  auto writer = make_rank(*ds, 1);
  Status put_status;
  int staged = 0;
  engine.spawn([](DsFixture::Rank& w, Status& out, int& ok) -> sim::Task<> {
    EXPECT_TRUE((co_await w.client->init()).is_ok());
    const nda::Dims dims = {2, 128, 65536};  // 128 MiB of doubles
    for (int v = 0; v < 15; ++v) {
      VarDesc var{"big" + std::to_string(v), dims, 0};
      Slab content = Slab::synthetic(Box::whole(dims), 1);
      out = co_await w.client->put(var, content);
      if (!out.is_ok()) break;
      ++ok;
    }
  }(writer, put_status, staged));
  run_all();
  EXPECT_EQ(put_status.code(), ErrorCode::kTimeout);
  EXPECT_EQ(staged, 14);
  const std::uint64_t per_object = index_bytes_for_object(2ull * 128 * 65536);
  EXPECT_EQ(ds->server_stats(0).index_bytes, 14 * per_object);
  EXPECT_EQ(ds->server_memory(0).current(mem::Tag::kIndex), 14 * per_object);
  EXPECT_EQ(ds->server_stats(0).puts, 14u);
}

TEST_F(DsFixture, ManySmallObjectsExhaustRdmaHandlers) {
  // Paper §III-B1: at (8192, 4096) DataSpaces fails via the RDMA
  // memory-handler cap even at reduced problem size. Staged objects each
  // hold a handler.
  hpc::MachineConfig tiny = hpc::testbed();  // 16 handlers per node
  hpc::Cluster tc(tiny);
  net::Fabric tf(engine, tiny);
  net::RdmaTransport tr(engine, tf, net::TransportKind::kRdmaUgni);
  Config c;
  c.num_servers = 1;
  c.servers_per_node = 1;
  c.client_base_bytes = 0;
  c.server_base_bytes = 0;
  DataSpaces ds(engine, tc, tr, c);
  ASSERT_TRUE(ds.deploy(tc.allocate_nodes(1)).is_ok());
  const int client_node = tc.allocate_nodes(1)[0];
  mem::ProcessMemory pm(engine, "w");
  DataSpaces::Client client(
      ds, net::Endpoint{1, 0, &tc.node(client_node)}, pm);
  Status last;
  engine.spawn([](DataSpaces::Client& w, Status& out) -> sim::Task<> {
    EXPECT_TRUE((co_await w.init()).is_ok());
    const nda::Dims dims = {4, 4};  // 128 B objects
    for (int v = 0; v < 40 && out.is_ok(); ++v) {
      VarDesc var{"obj" + std::to_string(v), dims, 0};
      Slab content = Slab::synthetic(Box::whole(dims), 1);
      out = co_await w.put(var, content);
    }
  }(client, last));
  run_all();
  EXPECT_EQ(last.code(), ErrorCode::kOutOfRdmaHandlers);
}

TEST_F(DsFixture, Use32BitDimsReproducesOverflowCrash) {
  Config c;
  c.use_32bit_dims = true;
  auto ds = deploy(1, c);
  auto writer = make_rank(*ds, 1);
  Status put_status;
  engine.spawn([](DsFixture::Rank& w, Status& out) -> sim::Task<> {
    EXPECT_TRUE((co_await w.client->init()).is_ok());
    nda::Dims global = {5, 8192, 512000};  // overflows 32-bit counts
    VarDesc var{"huge", global, 0};
    nda::Dims my_lb = {0, 0, 0};
    nda::Dims my_ub = {5, 1, 512000};
    Slab mine = Slab::synthetic(Box(my_lb, my_ub), 1);
    out = co_await w.client->put(var, mine);
  }(writer, put_status));
  run_all();
  EXPECT_EQ(put_status.code(), ErrorCode::kDimensionOverflow);
}

TEST_F(DsFixture, IndexMemoryChargedOnServers) {
  auto ds = deploy(2);
  auto writer = make_rank(*ds, 1);
  const VarDesc var{"ix", {256, 512}, 0};  // 2-D -> cube index model
  engine.spawn([](DsFixture::Rank& w, VarDesc var) -> sim::Task<> {
    EXPECT_TRUE((co_await w.client->init()).is_ok());
    EXPECT_TRUE(
        (co_await w.client->put(var,
                                Slab::synthetic(Box::whole(var.global), 5)))
            .is_ok());
  }(writer, var));
  run_all();
  const std::uint64_t expected = index_bytes_per_server(var.global, 2);
  // The put touched both regions (its box spans the whole domain), so each
  // server charged its share once.
  EXPECT_EQ(ds->total_index_bytes(), 2 * expected);
  EXPECT_EQ(ds->server_memory(0).current(mem::Tag::kIndex), expected);
}

TEST_F(DsFixture, ClientBaseMemoryAllocatedAndFreed) {
  auto ds = deploy(1);
  auto writer = make_rank(*ds, 1);
  engine.spawn([](DsFixture::Rank& w, DataSpaces& ds) -> sim::Task<> {
    EXPECT_TRUE((co_await w.client->init()).is_ok());
    EXPECT_EQ(w.memory->current(mem::Tag::kLibrary),
              ds.config().client_base_bytes);
    w.client->finalize();
    EXPECT_EQ(w.memory->current(mem::Tag::kLibrary), 0u);
  }(writer, *ds));
  run_all();
}

TEST_F(DsFixture, SocketTransportDepletesDescriptorsAtScale) {
  // Finding in §III-B5: beyond a scale, socket connections cannot be
  // established (descriptors run out on the staging node).
  hpc::MachineConfig tiny = hpc::testbed();  // 8 descriptors per node
  hpc::Cluster tc(tiny);
  net::Fabric tf(engine, tiny);
  net::SocketTransport sock(engine, tf);
  Config c;
  c.num_servers = 1;
  c.servers_per_node = 1;
  c.client_base_bytes = 0;
  c.server_base_bytes = 0;
  DataSpaces ds(engine, tc, sock, c);
  ASSERT_TRUE(ds.deploy(tc.allocate_nodes(1)).is_ok());

  std::vector<Status> inits(12);
  std::vector<std::unique_ptr<mem::ProcessMemory>> mems;
  std::vector<std::unique_ptr<DataSpaces::Client>> clients;
  for (int i = 0; i < 12; ++i) {
    const int node = tc.allocate_nodes(1)[0];
    mems.push_back(std::make_unique<mem::ProcessMemory>(
        engine, "c" + std::to_string(i)));
    clients.push_back(std::make_unique<DataSpaces::Client>(
        ds, net::Endpoint{100 + i, 0, &tc.node(node)}, *mems.back()));
    engine.spawn([](DataSpaces::Client& c, Status& out) -> sim::Task<> {
      out = co_await c.init();
    }(*clients.back(), inits[static_cast<std::size_t>(i)]));
  }
  run_all();
  int ok = 0, depleted = 0;
  for (const auto& s : inits) {
    if (s.is_ok()) {
      ++ok;
    } else if (s.code() == ErrorCode::kOutOfSockets) {
      ++depleted;
    }
  }
  EXPECT_EQ(ok, 8);
  EXPECT_EQ(depleted, 4);
}

// uGNI, except that the payload out of one process is held back for
// `delay` seconds, or lost when `delay` < 0: that writer's put is granted
// its placeholder, then commits late or never.
class PayloadFaultTransport final : public net::Transport {
 public:
  PayloadFaultTransport(sim::Engine& engine, net::Transport& inner, int pid,
                        double delay)
      : engine_(&engine), inner_(&inner), pid_(pid), delay_(delay) {}
  net::TransportKind kind() const override { return inner_->kind(); }
  sim::Task<Status> connect(const net::Endpoint& a,
                            const net::Endpoint& b) override {
    return inner_->connect(a, b);
  }
  sim::Task<Status> transfer(const net::Endpoint& from,
                             const net::Endpoint& to, std::uint64_t bytes,
                             net::TransferOptions opts) override {
    // Control messages are pinned on both sides; only payloads are not.
    if (from.pid == pid_ && !opts.src_pinned) {
      if (delay_ < 0) {
        co_return make_error(ErrorCode::kConnectionFailed, "payload lost");
      }
      co_await engine_->sleep(delay_);
    }
    co_return co_await inner_->transfer(from, to, bytes, opts);
  }
  void disconnect_all(const net::Endpoint& e) override {
    inner_->disconnect_all(e);
  }

 private:
  sim::Engine* engine_;
  net::Transport* inner_;
  int pid_;
  double delay_;
};

// Two writers on one server: writer 1 is granted its placeholder first, but
// its payload is held back, so writer 2's commit reaches the server first.
// Each commit must still land in its own placeholder.
TEST_F(DsFixture, CommitsInReverseOfPrepOrderFillTheirOwnPlaceholders) {
  PayloadFaultTransport slow(engine, ugni, /*pid=*/1, /*delay=*/1e-3);
  auto ds = deploy(1, {}, &slow);
  const VarDesc var{"order", {2, 64}, 0};
  const auto boxes = nda::decompose_1d(var.global, 2, 0);
  std::vector<Rank> writers;
  writers.push_back(make_rank(*ds, 1));
  writers.push_back(make_rank(*ds, 2));
  double put_done[2] = {-1, -1};
  int puts = 0;
  auto writer = [](sim::Engine& e, DsFixture::Rank& w, VarDesc var, Slab src,
                   double start, double& done, int& puts) -> sim::Task<> {
    EXPECT_TRUE((co_await w.client->init()).is_ok());
    co_await e.sleep(start);
    EXPECT_TRUE((co_await w.client->put(var, src)).is_ok());
    done = e.now();  // the commit was queued at this instant
    ++puts;
  };
  for (std::size_t i = 0; i < 2; ++i) {
    engine.spawn(writer(engine, writers[i], var,
                        Slab::synthetic(boxes[i], 31 + i),
                        static_cast<double>(i) * 10e-6, put_done[i], puts));
  }
  auto reader = make_rank(*ds, 3);
  engine.spawn([](sim::Engine& e, DsFixture::Rank& r, VarDesc var,
                  std::vector<Box> boxes, int& puts) -> sim::Task<> {
    EXPECT_TRUE((co_await r.client->init()).is_ok());
    while (puts < 2) co_await e.sleep(1e-3);
    EXPECT_TRUE((co_await r.client->publish(var)).is_ok());
    for (std::size_t i = 0; i < boxes.size(); ++i) {
      auto got = co_await r.client->get(var, boxes[i]);
      EXPECT_TRUE(got.has_value()) << got.status();
      if (got.has_value()) {
        EXPECT_FALSE(got->is_materialized());  // one synthetic definition
        EXPECT_EQ(got->seed(), 31 + i);
      }
    }
  }(engine, reader, var, boxes, puts));
  run_all();
  EXPECT_LT(put_done[1], put_done[0]);  // the commits crossed
}

// The placeholder of an aborted put stays open: it reads back as zeros,
// and the commits that arrive after it still land in their own slots.
TEST_F(DsFixture, AbortedPutReadsZerosWhileLaterCommitsLand) {
  PayloadFaultTransport lossy(engine, ugni, /*pid=*/1, /*delay=*/-1);
  auto ds = deploy(1, {}, &lossy);
  const VarDesc var{"abort", {3, 64}, 0};
  const auto boxes = nda::decompose_1d(var.global, 3, 0);
  std::vector<Rank> writers;
  for (int i = 0; i < 3; ++i) writers.push_back(make_rank(*ds, 1 + i));
  engine.spawn([](DsFixture::Rank& w0, DsFixture::Rank& w1,
                  DsFixture::Rank& w2, VarDesc var,
                  std::vector<Box> boxes) -> sim::Task<> {
    EXPECT_TRUE((co_await w0.client->init()).is_ok());
    EXPECT_TRUE((co_await w1.client->init()).is_ok());
    EXPECT_TRUE((co_await w2.client->init()).is_ok());
    auto aborted = co_await w0.client->put(var, Slab::synthetic(boxes[0], 40));
    EXPECT_EQ(aborted.code(), ErrorCode::kConnectionFailed);
    EXPECT_TRUE(
        (co_await w1.client->put(var, Slab::synthetic(boxes[1], 41))).is_ok());
    EXPECT_TRUE(
        (co_await w2.client->put(var, Slab::synthetic(boxes[2], 42))).is_ok());
    EXPECT_TRUE((co_await w1.client->publish(var)).is_ok());

    auto zeros = co_await w1.client->get(var, boxes[0]);
    EXPECT_TRUE(zeros.has_value()) << zeros.status();
    if (zeros.has_value()) {
      EXPECT_TRUE(zeros->is_materialized());
      for (double x : zeros->data()) EXPECT_EQ(x, 0.0);
    }
    for (std::size_t i = 1; i < 3; ++i) {
      auto got = co_await w1.client->get(var, boxes[i]);
      EXPECT_TRUE(got.has_value()) << got.status();
      if (got.has_value()) {
        EXPECT_FALSE(got->is_materialized());
        EXPECT_EQ(got->seed(), 40 + i);
      }
    }
  }(writers[0], writers[1], writers[2], var, boxes));
  run_all();
  EXPECT_EQ(ds->server_stats(0).puts, 3u);  // three placeholders staged
}

// Four writers stage tiled slabs over rows cut at 3, 6 and 9, the two
// staging regions meet at column 10, and three readers get columns cut at
// 7 and 14: no cut is a multiple of the 5 x 3 period. Every read must hold
// exactly what the writers put; it stays tiled only when all writers'
// blocks are bitwise equal (a merged read), else it is dense.
void read_back_tiled(DsFixture& f, bool equal_blocks) {
  auto ds = f.deploy(2);
  const VarDesc var{"tiled", {12, 20}, 0};
  const auto writer_boxes = nda::decompose_1d(var.global, 4, 0);
  const auto reader_boxes = nda::decompose_1d(var.global, 3, 1);
  std::vector<DsFixture::Rank> writers, readers;
  for (int i = 0; i < 4; ++i) writers.push_back(f.make_rank(*ds, 10 + i));
  for (int i = 0; i < 3; ++i) readers.push_back(f.make_rank(*ds, 20 + i));

  Slab expect = Slab::zeros(Box::whole(var.global));
  int puts_done = 0;
  for (std::size_t i = 0; i < writer_boxes.size(); ++i) {
    std::vector<double> block(15);
    for (std::size_t k = 0; k < block.size(); ++k) {
      block[k] = 0.5 + static_cast<double>(k + (equal_blocks ? 0 : 100 * i));
    }
    const Slab piece = Slab::tiled(writer_boxes[i], {5, 3}, std::move(block));
    expect.fill_from(piece);
    f.engine.spawn([](DsFixture::Rank& w, VarDesc var, Slab piece,
                      int& done) -> sim::Task<> {
      EXPECT_TRUE((co_await w.client->init()).is_ok());
      EXPECT_TRUE((co_await w.client->put(var, piece)).is_ok());
      ++done;
    }(writers[i], var, piece, puts_done));
  }
  f.engine.spawn([](sim::Engine& e, DsFixture::Rank& w, VarDesc var,
                    int& done) -> sim::Task<> {
    while (done < 4) co_await e.sleep(1e-3);
    EXPECT_TRUE((co_await w.client->publish(var)).is_ok());
  }(f.engine, writers[0], var, puts_done));
  for (std::size_t i = 0; i < reader_boxes.size(); ++i) {
    f.engine.spawn([](DsFixture::Rank& r, VarDesc var, Slab expect, Box want,
                      bool merged) -> sim::Task<> {
      EXPECT_TRUE((co_await r.client->init()).is_ok());
      EXPECT_TRUE((co_await r.client->wait_version(var.name, 0)).is_ok());
      auto got = co_await r.client->get(var, want);
      EXPECT_TRUE(got.has_value()) << got.status();
      if (got.has_value()) {
        EXPECT_EQ(got->is_tiled(), merged);
        EXPECT_EQ(got->checksum(), expect.extract(want).checksum());
      }
    }(readers[i], var, expect, reader_boxes[i], equal_blocks));
  }
  f.run_all();
}

TEST_F(DsFixture, TiledWritersWithEqualBlocksReadMerged) {
  read_back_tiled(*this, /*equal_blocks=*/true);
}

TEST_F(DsFixture, TiledWritersWithDifferentBlocksReadDense) {
  read_back_tiled(*this, /*equal_blocks=*/false);
}

}  // namespace
}  // namespace imc::dataspaces
