#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/units.h"
#include "flexpath/flexpath.h"
#include "hpc/cluster.h"
#include "net/fabric.h"
#include "net/transport.h"
#include "sim/engine.h"

namespace imc::flexpath {
namespace {

using nda::Box;
using nda::Dims;
using nda::Slab;
using nda::VarDesc;

struct FlexFixture : ::testing::Test {
  FlexFixture()
      : config(hpc::titan()), cluster(config), fabric(engine, config),
        nnti(engine, fabric, net::TransportKind::kRdmaNnti) {}

  std::unique_ptr<Flexpath> make(Config c = {}) {
    return std::make_unique<Flexpath>(engine, cluster, nnti, c);
  }

  struct Rank {
    net::Endpoint ep;
    std::unique_ptr<mem::ProcessMemory> memory;
  };
  Rank make_rank(int pid, int job = 0) {
    const int node = cluster.allocate_nodes(1)[0];
    Rank r;
    r.ep = net::Endpoint{pid, job, &cluster.node(node)};
    r.memory = std::make_unique<mem::ProcessMemory>(
        engine, "rank" + std::to_string(pid));
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
  net::RdmaTransport nnti;
};

TEST_F(FlexFixture, SingleWriterReaderRoundTrip) {
  auto fp = make();
  auto wr = make_rank(1);
  auto rr = make_rank(2);
  Flexpath::Writer writer(*fp, wr.ep, *wr.memory);
  Flexpath::Reader reader(*fp, rr.ep, *rr.memory);
  const VarDesc var{"field", {8, 16}, 0};
  Slab source = Slab::synthetic(Box::whole(var.global), 13);

  engine.spawn([](Flexpath::Writer& w, VarDesc var, Slab src) -> sim::Task<> {
    EXPECT_TRUE((co_await w.open("sim")).is_ok());
    EXPECT_TRUE((co_await w.write_step(var, src)).is_ok());
  }(writer, var, source));
  engine.spawn([](sim::Engine& e, Flexpath::Reader& r, VarDesc var,
                  Slab src) -> sim::Task<> {
    co_await e.sleep(1e-6);  // writers open first in coupled runs
    EXPECT_TRUE((co_await r.open("sim")).is_ok());
    auto got = co_await r.read_step(var, Box::whole(var.global));
    EXPECT_TRUE(got.has_value()) << got.status();
    if (got.has_value()) {
      EXPECT_DOUBLE_EQ(got->checksum(), src.checksum());
    }
    EXPECT_TRUE((co_await r.release_step(0)).is_ok());
  }(engine, reader, var, source));
  run_all();
}

TEST_F(FlexFixture, QueueSizeOneBlocksWriterUntilRelease) {
  Config c;
  c.queue_size = 1;
  auto fp = make(c);
  auto wr = make_rank(1);
  auto rr = make_rank(2);
  Flexpath::Writer writer(*fp, wr.ep, *wr.memory);
  Flexpath::Reader reader(*fp, rr.ep, *rr.memory);
  const Dims dims = {8, 8};
  std::vector<double> write_times;

  engine.spawn([](sim::Engine& e, Flexpath::Writer& w, Dims dims,
                  std::vector<double>& times) -> sim::Task<> {
    EXPECT_TRUE((co_await w.open("sim")).is_ok());
    for (int step = 0; step < 3; ++step) {
      VarDesc var{"u", dims, step};
      Slab content = Slab::synthetic(Box::whole(dims), 1);
      EXPECT_TRUE((co_await w.write_step(var, content)).is_ok());
      times.push_back(e.now());
    }
  }(engine, writer, dims, write_times));
  engine.spawn([](sim::Engine& e, Flexpath::Reader& r, Dims dims)
                   -> sim::Task<> {
    co_await e.sleep(1e-6);
    EXPECT_TRUE((co_await r.open("sim")).is_ok());
    for (int step = 0; step < 3; ++step) {
      co_await e.sleep(2.0);  // slow analytics
      VarDesc var{"u", dims, step};
      auto got = co_await r.read_step(var, Box::whole(dims));
      EXPECT_TRUE(got.has_value()) << got.status();
      EXPECT_TRUE((co_await r.release_step(step)).is_ok());
    }
  }(engine, reader, dims));
  run_all();
  ASSERT_EQ(write_times.size(), 3u);
  // Step 0 writes immediately; step 1 must wait for the reader's release of
  // step 0 (~2 s); step 2 waits for release of step 1 (~4 s).
  EXPECT_LT(write_times[0], 0.1);
  EXPECT_GT(write_times[1], 1.9);
  EXPECT_GT(write_times[2], 3.9);
}

TEST_F(FlexFixture, DeeperQueueDecouplesWriter) {
  Config c;
  c.queue_size = 4;
  auto fp = make(c);
  auto wr = make_rank(1);
  auto rr = make_rank(2);
  Flexpath::Writer writer(*fp, wr.ep, *wr.memory);
  Flexpath::Reader reader(*fp, rr.ep, *rr.memory);
  const Dims dims = {8, 8};
  std::vector<double> write_times;

  engine.spawn([](sim::Engine& e, Flexpath::Writer& w, Dims dims,
                  std::vector<double>& times) -> sim::Task<> {
    EXPECT_TRUE((co_await w.open("sim")).is_ok());
    for (int step = 0; step < 3; ++step) {
      VarDesc var{"u", dims, step};
      Slab content = Slab::synthetic(Box::whole(dims), 1);
      EXPECT_TRUE((co_await w.write_step(var, content)).is_ok());
      times.push_back(e.now());
    }
  }(engine, writer, dims, write_times));
  engine.spawn([](sim::Engine& e, Flexpath::Reader& r, Dims dims)
                   -> sim::Task<> {
    co_await e.sleep(1e-6);
    EXPECT_TRUE((co_await r.open("sim")).is_ok());
    for (int step = 0; step < 3; ++step) {
      co_await e.sleep(2.0);
      VarDesc var{"u", dims, step};
      auto got = co_await r.read_step(var, Box::whole(dims));
      EXPECT_TRUE(got.has_value());
      EXPECT_TRUE((co_await r.release_step(step)).is_ok());
    }
  }(engine, reader, dims));
  run_all();
  // All three writes proceed without waiting on the slow reader.
  EXPECT_LT(write_times[2], 0.1);
}

TEST_F(FlexFixture, ManyWritersToFewerReaders) {
  auto fp = make();
  const VarDesc var{"grid", {12, 8}, 0};
  Slab source = Slab::synthetic(Box::whole(var.global), 44);
  auto writer_boxes = nda::decompose_1d(var.global, 4, 0);
  auto reader_boxes = nda::decompose_1d(var.global, 2, 1);

  std::vector<Rank> wranks, rranks;
  std::vector<std::unique_ptr<Flexpath::Writer>> writers;
  std::vector<std::unique_ptr<Flexpath::Reader>> readers;
  for (int i = 0; i < 4; ++i) {
    wranks.push_back(make_rank(10 + i));
    writers.push_back(std::make_unique<Flexpath::Writer>(
        *fp, wranks.back().ep, *wranks.back().memory));
  }
  for (int i = 0; i < 2; ++i) {
    rranks.push_back(make_rank(20 + i, 1));
    readers.push_back(std::make_unique<Flexpath::Reader>(
        *fp, rranks.back().ep, *rranks.back().memory));
  }
  for (int i = 0; i < 4; ++i) {
    engine.spawn([](Flexpath::Writer& w, VarDesc var, Slab piece)
                     -> sim::Task<> {
      EXPECT_TRUE((co_await w.open("sim")).is_ok());
      EXPECT_TRUE((co_await w.write_step(var, piece)).is_ok());
    }(*writers[static_cast<std::size_t>(i)], var,
      source.extract(writer_boxes[static_cast<std::size_t>(i)])));
  }
  for (int i = 0; i < 2; ++i) {
    engine.spawn([](sim::Engine& e, Flexpath::Reader& r, VarDesc var,
                    Slab expect, Box want) -> sim::Task<> {
      co_await e.sleep(1e-6);
      EXPECT_TRUE((co_await r.open("sim")).is_ok());
      auto got = co_await r.read_step(var, want);
      EXPECT_TRUE(got.has_value()) << got.status();
      if (got.has_value()) {
        EXPECT_DOUBLE_EQ(got->checksum(), expect.extract(want).checksum());
      }
      EXPECT_TRUE((co_await r.release_step(0)).is_ok());
    }(engine, *readers[static_cast<std::size_t>(i)], var, source,
      reader_boxes[static_cast<std::size_t>(i)]));
  }
  run_all();
  // Both readers released: writers' queues drained.
  for (const auto& w : writers) EXPECT_EQ(w->queued_steps(), 0);
}

// Readers at different steps share one writer's step list. While reader A
// is inside read_step(1), reader B adds the placeholder for step 2 and
// reader C's release of step 0, the last one, erases that step. A's fetch
// holds a reference to step 1 across its co_awaits, so the step must not
// move (ASan reports a dangling reference) and must keep its content.
TEST_F(FlexFixture, StaggeredReadersKeepStepsInPlace) {
  Config c;
  c.queue_size = 2;
  c.num_readers = 3;
  c.cpu_speed = 1e-7;  // slow FFS encode/decode: each fetch takes ~2 encodes
  auto fp = make(c);
  const Dims dims = {8, 8};
  const Box whole = Box::whole(dims);
  constexpr int kSteps = 4;
  // Dense content that differs per step, so reading another step's memory
  // (or freed memory) changes the checksum.
  std::vector<Slab> content;
  std::vector<double> expect;
  for (int step = 0; step < kSteps; ++step) {
    Slab dense = Slab::zeros(whole);
    dense.fill_from(Slab::synthetic(whole, 100 + static_cast<unsigned>(step)));
    expect.push_back(dense.checksum());
    content.push_back(std::move(dense));
  }
  const double encode = serial::encode_seconds(
      whole.volume() * nda::kElementBytes, c.cpu_speed);

  auto wr = make_rank(1);
  Flexpath::Writer writer(*fp, wr.ep, *wr.memory);
  engine.spawn([](Flexpath::Writer& w, Dims dims,
                  std::vector<Slab> content) -> sim::Task<> {
    EXPECT_TRUE((co_await w.open("sim")).is_ok());
    for (int step = 0; step < static_cast<int>(content.size()); ++step) {
      VarDesc var{"u", dims, step};
      const Slab& slab = content[static_cast<std::size_t>(step)];
      EXPECT_TRUE((co_await w.write_step(var, slab)).is_ok());
    }
  }(writer, dims, content));

  struct Times {
    double read_start = -1, read_end = -1, released = -1;
  };
  std::vector<Rank> rranks;
  std::vector<std::unique_ptr<Flexpath::Reader>> readers;
  std::vector<std::vector<Times>> times(3, std::vector<Times>(kSteps));
  // Earliest start of each step's read, per reader (0: right away).
  const std::vector<std::vector<double>> starts = {
      {0, 3 * encode, 0, 0},    // A: reads step 1 while B and C act
      {0, 0, 0, 0},             // B: runs ahead to step 2's placeholder
      {2.5 * encode, 0, 0, 0},  // C: releases step 0 last
  };
  for (int i = 0; i < 3; ++i) {
    rranks.push_back(make_rank(20 + i, 1));
    readers.push_back(std::make_unique<Flexpath::Reader>(
        *fp, rranks.back().ep, *rranks.back().memory));
    engine.spawn([](sim::Engine& e, Flexpath::Reader& r, Dims dims,
                    std::vector<double> starts, std::vector<double> expect,
                    std::vector<Times>& times) -> sim::Task<> {
      co_await e.sleep(1e-6);
      EXPECT_TRUE((co_await r.open("sim")).is_ok());
      for (int step = 0; step < static_cast<int>(starts.size()); ++step) {
        const auto s = static_cast<std::size_t>(step);
        if (starts[s] > e.now()) co_await e.sleep(starts[s] - e.now());
        times[s].read_start = e.now();
        VarDesc var{"u", dims, step};
        auto got = co_await r.read_step(var, Box::whole(dims));
        times[s].read_end = e.now();
        EXPECT_TRUE(got.has_value()) << got.status();
        if (got.has_value()) {
          EXPECT_EQ(got->checksum(), expect[s]) << step;
        }
        EXPECT_TRUE((co_await r.release_step(step)).is_ok());
        times[s].released = e.now();
      }
    }(engine, *readers.back(), dims, starts[static_cast<std::size_t>(i)],
      expect, times[static_cast<std::size_t>(i)]));
  }
  run_all();

  // The interleaving happened: A's read of step 1 spans B's wait on the
  // step-2 placeholder starting and C's last release of step 0, and B's
  // wait ends only after that release freed the writer's queue slot.
  const auto& a = times[0];
  const auto& b = times[1];
  const auto& cr = times[2];
  EXPECT_LT(a[1].read_start, b[2].read_start);
  EXPECT_LT(b[2].read_start, cr[0].released);
  EXPECT_LT(cr[0].released, a[1].read_end);
  EXPECT_GT(b[2].read_end, cr[0].released);
  for (const auto& reader : times) {
    for (const Times& t : reader) EXPECT_GE(t.released, 0);
  }
  EXPECT_EQ(writer.queued_steps(), 0);
  EXPECT_EQ(wr.memory->current(mem::Tag::kStaging), 0u);
}

TEST_F(FlexFixture, FormatHandshakeHappensOncePerWriter) {
  auto fp = make();
  auto wr = make_rank(1);
  auto rr = make_rank(2);
  Flexpath::Writer writer(*fp, wr.ep, *wr.memory);
  Flexpath::Reader reader(*fp, rr.ep, *rr.memory);
  engine.spawn([](sim::Engine& e, Flexpath::Writer& w, Flexpath::Reader& r,
                  Flexpath& fp) -> sim::Task<> {
    (void)e;
    EXPECT_TRUE((co_await w.open("sim")).is_ok());
    EXPECT_TRUE((co_await r.open("sim")).is_ok());
    EXPECT_TRUE((co_await r.open("sim")).is_ok());  // idempotent
    // One deduped format registered for the group.
    EXPECT_EQ(fp.formats().size(), 1u);
  }(engine, writer, reader, *fp));
  run_all();
}

TEST_F(FlexFixture, StagedMemoryChargedOnWriterUntilRelease) {
  auto fp = make();
  auto wr = make_rank(1);
  auto rr = make_rank(2);
  Flexpath::Writer writer(*fp, wr.ep, *wr.memory);
  Flexpath::Reader reader(*fp, rr.ep, *rr.memory);
  const Dims dims = {32, 32};
  engine.spawn([](Flexpath::Writer& w, Dims dims, Rank* rank) -> sim::Task<> {
    EXPECT_TRUE((co_await w.open("sim")).is_ok());
    VarDesc var{"u", dims, 0};
    Slab content = Slab::synthetic(Box::whole(dims), 1);
    EXPECT_TRUE((co_await w.write_step(var, content)).is_ok());
    EXPECT_EQ(rank->memory->current(mem::Tag::kStaging), 32u * 32 * 8);
  }(writer, dims, &wr));
  engine.spawn([](sim::Engine& e, Flexpath::Reader& r, Dims dims,
                  Rank* rank) -> sim::Task<> {
    co_await e.sleep(1e-6);
    EXPECT_TRUE((co_await r.open("sim")).is_ok());
    VarDesc var{"u", dims, 0};
    auto got = co_await r.read_step(var, Box::whole(dims));
    EXPECT_TRUE(got.has_value());
    EXPECT_TRUE((co_await r.release_step(0)).is_ok());
    EXPECT_EQ(rank->memory->current(mem::Tag::kStaging), 0u);
  }(engine, reader, dims, &wr));
  run_all();
}

TEST_F(FlexFixture, WriteBeforeOpenFails) {
  auto fp = make();
  auto wr = make_rank(1);
  Flexpath::Writer writer(*fp, wr.ep, *wr.memory);
  Status result;
  engine.spawn([](Flexpath::Writer& w, Status& out) -> sim::Task<> {
    const Dims dims = {4, 4};
    VarDesc var{"u", dims, 0};
    Slab content = Slab::synthetic(Box::whole(dims), 1);
    out = co_await w.write_step(var, content);
  }(writer, result));
  engine.run();
  EXPECT_EQ(result.code(), ErrorCode::kFailedPrecondition);
}

}  // namespace
}  // namespace imc::flexpath
