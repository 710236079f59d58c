#include <gtest/gtest.h>

#include <vector>

#include "hpc/cluster.h"
#include "mpi/comm.h"
#include "net/fabric.h"
#include "sim/engine.h"

namespace imc::mpi {
namespace {

struct MpiFixture : ::testing::Test {
  MpiFixture() : config(hpc::testbed()), cluster(config),
                 fabric(engine, config) {}

  // Builds a communicator of n ranks placed block-wise.
  std::unique_ptr<Comm> make_comm(int n) {
    return std::make_unique<Comm>(engine, fabric, cluster,
                                  cluster.place_block(n));
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
};

TEST_F(MpiFixture, SendRecvDeliversPayload) {
  auto comm = make_comm(2);
  std::vector<double> received;
  engine.spawn([](Comm& c) -> sim::Task<> {
    std::vector<double> payload = {1.0, 2.0, 3.0};
    co_await c.send(0, 1, 7, 3 * sizeof(double), std::move(payload));
  }(*comm));
  engine.spawn([](Comm& c, std::vector<double>& out) -> sim::Task<> {
    Message m = co_await c.recv(1, 0, 7);
    EXPECT_EQ(m.source, 0);
    EXPECT_EQ(m.tag, 7);
    out = std::any_cast<std::vector<double>>(std::move(m.payload));
  }(*comm, received));
  run_all();
  EXPECT_EQ(received, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST_F(MpiFixture, RecvBeforeSendSuspends) {
  auto comm = make_comm(2);
  double recv_time = -1;
  engine.spawn([](sim::Engine& e, Comm& c, double& out) -> sim::Task<> {
    (void)co_await c.recv(1);
    out = e.now();
  }(engine, *comm, recv_time));
  engine.spawn([](sim::Engine& e, Comm& c) -> sim::Task<> {
    co_await e.sleep(3);
    co_await c.send(0, 1, 0, 64);
  }(engine, *comm));
  run_all();
  EXPECT_GT(recv_time, 3.0);
}

TEST_F(MpiFixture, TagMatchingIsSelective) {
  auto comm = make_comm(2);
  std::vector<int> tags_in_order;
  engine.spawn([](Comm& c) -> sim::Task<> {
    co_await c.send(0, 1, /*tag=*/5, 8, 5.0);
    co_await c.send(0, 1, /*tag=*/6, 8, 6.0);
  }(*comm));
  engine.spawn([](Comm& c, std::vector<int>& out) -> sim::Task<> {
    // Receive tag 6 first even though tag 5 arrived earlier.
    Message m6 = co_await c.recv(1, kAnySource, 6);
    out.push_back(m6.tag);
    Message m5 = co_await c.recv(1, kAnySource, 5);
    out.push_back(m5.tag);
  }(*comm, tags_in_order));
  run_all();
  EXPECT_EQ(tags_in_order, (std::vector<int>{6, 5}));
}

TEST_F(MpiFixture, SourceWildcardReceivesFromAnyRank) {
  auto comm = make_comm(4);
  std::vector<int> sources;
  for (int r = 1; r < 4; ++r) {
    engine.spawn([](sim::Engine& e, Comm& c, int r) -> sim::Task<> {
      co_await e.sleep(r);  // staggered
      co_await c.send(r, 0, 1, 8);
    }(engine, *comm, r));
  }
  engine.spawn([](Comm& c, std::vector<int>& out) -> sim::Task<> {
    for (int i = 0; i < 3; ++i) {
      Message m = co_await c.recv(0, kAnySource, 1);
      out.push_back(m.source);
    }
  }(*comm, sources));
  run_all();
  EXPECT_EQ(sources, (std::vector<int>{1, 2, 3}));
}

TEST_F(MpiFixture, FifoPerSourceAndTag) {
  auto comm = make_comm(2);
  std::vector<double> values;
  engine.spawn([](Comm& c) -> sim::Task<> {
    for (int i = 0; i < 5; ++i) {
      co_await c.send(0, 1, 2, 8, static_cast<double>(i));
    }
  }(*comm));
  engine.spawn([](Comm& c, std::vector<double>& out) -> sim::Task<> {
    for (int i = 0; i < 5; ++i) {
      Message m = co_await c.recv(1, 0, 2);
      out.push_back(std::any_cast<double>(m.payload));
    }
  }(*comm, values));
  run_all();
  EXPECT_EQ(values, (std::vector<double>{0, 1, 2, 3, 4}));
}

class BarrierSweep : public MpiFixture,
                     public ::testing::WithParamInterface<int> {};

TEST_P(BarrierSweep, ReleasesAllRanksAtOrAfterLastArrival) {
  const int n = GetParam();
  auto comm = make_comm(n);
  std::vector<double> release_times;
  for (int r = 0; r < n; ++r) {
    engine.spawn([](sim::Engine& e, Comm& c, int r,
                    std::vector<double>& out) -> sim::Task<> {
      co_await e.sleep(r);  // last arrival at t = n-1
      co_await c.barrier(r);
      out.push_back(e.now());
    }(engine, *comm, r, release_times));
  }
  run_all();
  ASSERT_EQ(release_times.size(), static_cast<std::size_t>(n));
  for (double t : release_times) EXPECT_GE(t, n - 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BarrierSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 16));

TEST_F(MpiFixture, BackToBackCollectivesDoNotCrossMatch) {
  // Every barrier takes the next tag of the per-rank collective sequence,
  // so two barriers in a row never match each other's rounds, and tagged
  // application messages sent between barriers stay queued for the
  // application's own receive.
  const int n = 4;
  auto comm = make_comm(n);
  std::vector<double> got(static_cast<std::size_t>(n), -1);
  std::vector<double> released(static_cast<std::size_t>(n), -1);
  for (int r = 0; r < n; ++r) {
    engine.spawn([](sim::Engine& e, Comm& c, int r, int n,
                    std::vector<double>& got,
                    std::vector<double>& released) -> sim::Task<> {
      const int left = (r - 1 + n) % n;
      co_await e.sleep(r);  // last arrival at t = n-1
      co_await c.barrier(r);
      co_await c.barrier(r);
      co_await c.send(r, (r + 1) % n, /*tag=*/r, 8, static_cast<double>(r));
      co_await c.barrier(r);
      Message m = co_await c.recv(r, left, /*tag=*/left);
      got[static_cast<std::size_t>(r)] = std::any_cast<double>(m.payload);
      co_await c.barrier(r);
      released[static_cast<std::size_t>(r)] = e.now();
    }(engine, *comm, r, n, got, released));
  }
  run_all();
  for (int r = 0; r < n; ++r) {
    const auto slot = static_cast<std::size_t>(r);
    EXPECT_DOUBLE_EQ(got[slot], static_cast<double>((r - 1 + n) % n));
    EXPECT_GE(released[slot], n - 1) << "rank " << r;
    EXPECT_EQ(comm->pending(r), 0u) << "rank " << r;
  }
}

TEST_F(MpiFixture, MessagesTakeFabricTime) {
  auto comm = make_comm(8);  // testbed: 4 cores/node -> ranks 0 and 7 are on
                             // different nodes
  double elapsed = -1;
  engine.spawn([](Comm& c) -> sim::Task<> {
    co_await c.send(0, 7, 0, 1'000'000);  // 1 MB at 1 GB/s ~= 1 ms
  }(*comm));
  engine.spawn([](sim::Engine& e, Comm& c, double& out) -> sim::Task<> {
    (void)co_await c.recv(7, 0, 0);
    out = e.now();
  }(engine, *comm, elapsed));
  run_all();
  EXPECT_NEAR(elapsed, 1e-3, 1e-4);
}

TEST_F(MpiFixture, EndpointExposesGlobalPid) {
  Comm comm(engine, fabric, cluster, cluster.place_block(4), /*job=*/3,
            /*pid_base=*/100);
  EXPECT_EQ(comm.endpoint(2).pid, 102);
  EXPECT_EQ(comm.endpoint(2).job, 3);
  EXPECT_EQ(comm.endpoint(0).node, &comm.node_of(0));
}

}  // namespace
}  // namespace imc::mpi
