#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/units.h"
#include "decaf/decaf.h"
#include "hpc/cluster.h"
#include "mpi/comm.h"
#include "net/fabric.h"
#include "sim/engine.h"

namespace imc::decaf {
namespace {

using nda::Box;
using nda::Dims;
using nda::Slab;
using nda::VarDesc;

// Test harness: P producers, D dataflow ranks, C consumers on one world.
struct DecafFixture : ::testing::Test {
  DecafFixture() : machine(hpc::testbed()), cluster(machine),
                   fabric(engine, machine) {}

  struct World {
    std::unique_ptr<mpi::Comm> comm;
    std::vector<std::unique_ptr<mem::ProcessMemory>> memory;
    std::vector<mem::ProcessMemory*> memory_ptrs;
    std::unique_ptr<Dataflow> flow;
  };

  World make_world(int nprod, int ndflow, int ncon) {
    World w;
    const int total = nprod + ndflow + ncon;
    w.comm = std::make_unique<mpi::Comm>(engine, fabric, cluster,
                                         cluster.place_block(total));
    for (int r = 0; r < total; ++r) {
      w.memory.push_back(std::make_unique<mem::ProcessMemory>(
          engine, "w" + std::to_string(r)));
      w.memory_ptrs.push_back(w.memory.back().get());
    }
    w.flow = std::make_unique<Dataflow>(engine, *w.comm, 0, nprod, nprod,
                                        ndflow, nprod + ndflow, ncon,
                                        Config{}, w.memory_ptrs);
    return w;
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
};

TEST_F(DecafFixture, EndToEndPipelineDeliversContent) {
  auto w = make_world(2, 2, 2);
  const Dims global = {8, 24};
  Slab source = Slab::synthetic(Box::whole(global), 17);
  auto prod_boxes = nda::decompose_1d(global, 2, 0);
  auto con_boxes = nda::decompose_1d(global, 2, 1);

  for (int p = 0; p < 2; ++p) {
    engine.spawn([](Dataflow& f, int p, VarDesc var, Slab piece)
                     -> sim::Task<> {
      EXPECT_TRUE((co_await f.put(p, var, piece)).is_ok());
      co_await f.stop(p, 1);
    }(*w.flow, p, VarDesc{"u", global, 0},
      source.extract(prod_boxes[static_cast<std::size_t>(p)])));
  }
  for (int d = 0; d < 2; ++d) {
    engine.spawn(w.flow->dflow_loop(d));
  }
  for (int c = 0; c < 2; ++c) {
    engine.spawn([](Dataflow& f, int c, VarDesc var, Slab expect, Box want)
                     -> sim::Task<> {
      auto got = co_await f.get(c, var, want);
      EXPECT_TRUE(got.has_value()) << got.status();
      if (got.has_value()) {
        EXPECT_DOUBLE_EQ(got->checksum(), expect.extract(want).checksum());
      }
    }(*w.flow, c, VarDesc{"u", global, 0}, source,
      con_boxes[static_cast<std::size_t>(c)]));
  }
  run_all();
  EXPECT_EQ(w.flow->steps_processed(0), 1u);
  EXPECT_EQ(w.flow->steps_processed(1), 1u);
}

TEST_F(DecafFixture, MultiStepPipeline) {
  auto w = make_world(2, 1, 1);
  const Dims global = {4, 16};
  const int steps = 3;
  auto prod_boxes = nda::decompose_1d(global, 2, 1);

  for (int p = 0; p < 2; ++p) {
    engine.spawn([](Dataflow& f, int p, Dims global, Box mine,
                    int steps) -> sim::Task<> {
      for (int t = 0; t < steps; ++t) {
        Slab piece = Slab::synthetic(mine, static_cast<std::uint64_t>(t));
        VarDesc var{"u", global, t};
        EXPECT_TRUE((co_await f.put(p, var, piece)).is_ok());
      }
      co_await f.stop(p, steps);
    }(*w.flow, p, global, prod_boxes[static_cast<std::size_t>(p)], steps));
  }
  engine.spawn(w.flow->dflow_loop(0));
  engine.spawn([](Dataflow& f, Dims global, int steps) -> sim::Task<> {
    for (int t = 0; t < steps; ++t) {
      VarDesc var{"u", global, t};
      Box whole = Box::whole(global);
      auto got = co_await f.get(0, var, whole);
      EXPECT_TRUE(got.has_value()) << got.status();
      if (got.has_value()) {
        Slab expect = Slab::zeros(Box::whole(global));
        auto boxes = nda::decompose_1d(global, 2, 1);
        for (const auto& b : boxes) {
          Slab piece = Slab::synthetic(b, static_cast<std::uint64_t>(t));
          expect.fill_from(piece);
        }
        EXPECT_DOUBLE_EQ(got->checksum(), expect.checksum()) << "step " << t;
      }
    }
  }(*w.flow, global, steps));
  run_all();
  EXPECT_EQ(w.flow->steps_processed(0), 3u);
}

TEST_F(DecafFixture, DataflowPeakMemoryIsSevenTimesShare) {
  // Finding 2 / Fig. 7: the Bredala pipeline peaks at ~7x the raw share on
  // a dataflow rank.
  auto w = make_world(1, 1, 1);
  const Dims global = {16, 16};  // 2 KiB raw
  const std::uint64_t raw = 16 * 16 * 8;

  engine.spawn([](Dataflow& f, Dims global) -> sim::Task<> {
    Slab content = Slab::synthetic(Box::whole(global), 1);
    VarDesc var{"u", global, 0};
    EXPECT_TRUE((co_await f.put(0, var, content)).is_ok());
    co_await f.stop(0, 1);
  }(*w.flow, global));
  engine.spawn(w.flow->dflow_loop(0));
  engine.spawn([](Dataflow& f, Dims global) -> sim::Task<> {
    VarDesc var{"u", global, 0};
    Box whole = Box::whole(global);
    auto got = co_await f.get(0, var, whole);
    EXPECT_TRUE(got.has_value());
  }(*w.flow, global));
  run_all();
  // Dataflow rank is world rank 1.
  EXPECT_EQ(w.memory[1]->peak(), 7 * raw);
  // Breakdown: 1x wire (library), 4x transform, 2x staged.
  EXPECT_EQ(w.memory[1]->peak_of(mem::Tag::kLibrary), raw);
  EXPECT_EQ(w.memory[1]->peak_of(mem::Tag::kTransform), 4 * raw);
  EXPECT_EQ(w.memory[1]->peak_of(mem::Tag::kStaging), 2 * raw);
}

TEST_F(DecafFixture, ProducerTransientTransformMemory) {
  auto w = make_world(1, 1, 1);
  const Dims global = {16, 16};
  const std::uint64_t raw = 16 * 16 * 8;
  engine.spawn([](Dataflow& f, Dims global,
                  mem::ProcessMemory* pm) -> sim::Task<> {
    Slab content = Slab::synthetic(Box::whole(global), 1);
    VarDesc var{"u", global, 0};
    EXPECT_TRUE((co_await f.put(0, var, content)).is_ok());
    // Pipeline buffers released after the put.
    EXPECT_EQ(pm->current(mem::Tag::kTransform), 0u);
    co_await f.stop(0, 1);
  }(*w.flow, global, w.memory[0].get()));
  engine.spawn(w.flow->dflow_loop(0));
  engine.spawn([](Dataflow& f, Dims global) -> sim::Task<> {
    VarDesc var{"u", global, 0};
    Box whole = Box::whole(global);
    auto got = co_await f.get(0, var, whole);
    EXPECT_TRUE(got.has_value());
  }(*w.flow, global));
  run_all();
  EXPECT_EQ(w.memory[0]->peak_of(mem::Tag::kTransform), 3 * raw);
}

TEST_F(DecafFixture, DflowAbortsOnOutOfMemory) {
  // Table IV "out of main memory": the 7x pipeline on a small node.
  hpc::MachineConfig tiny = machine;
  tiny.memory_per_node = 256 * kKiB;  // dataflow node too small for 7x
  hpc::Cluster tc(tiny);
  net::Fabric tf(engine, tiny);
  mpi::Comm comm(engine, tf, tc, tc.place_block(3, 1));
  std::vector<std::unique_ptr<mem::ProcessMemory>> mems;
  std::vector<mem::ProcessMemory*> ptrs;
  for (int r = 0; r < 3; ++r) {
    mems.push_back(std::make_unique<mem::ProcessMemory>(
        engine, "r" + std::to_string(r),
        &tc.node(r).memory()));
    ptrs.push_back(mems.back().get());
  }
  Dataflow flow(engine, comm, 0, 1, 1, 1, 2, 1, {}, ptrs);
  const Dims global = {64, 128};  // 64 KiB raw -> 7x = 448 KiB > 256 KiB

  engine.spawn([](Dataflow& f, Dims global) -> sim::Task<> {
    Slab content = Slab::synthetic(Box::whole(global), 1);
    VarDesc var{"u", global, 0};
    (void)co_await f.put(0, var, content);
    co_await f.stop(0, 1);
  }(flow, global));
  engine.spawn(flow.dflow_loop(0));
  engine.run();
  ASSERT_FALSE(engine.process_failures().empty());
  EXPECT_NE(engine.process_failures()[0].find("OUT_OF_MEMORY"),
            std::string::npos);
}

TEST_F(DecafFixture, ConsumerGetFailsWhenDecodeBufferDoesNotFit) {
  // Producer and dataflow ranks run unbounded; the consumer's node cannot
  // hold the decode buffer for what the dataflow delivers.
  hpc::MachineConfig tiny = machine;
  tiny.memory_per_node = 32 * kKiB;
  hpc::Cluster tc(tiny);
  net::Fabric tf(engine, tiny);
  mpi::Comm comm(engine, tf, tc, tc.place_block(3, 1));
  mem::ProcessMemory producer(engine, "r0");
  mem::ProcessMemory dflow_rank(engine, "r1");
  mem::ProcessMemory consumer(engine, "r2", &tc.node(2).memory());
  Dataflow flow(engine, comm, 0, 1, 1, 1, 2, 1, {},
                {&producer, &dflow_rank, &consumer});
  const Dims global = {64, 128};  // 64 KiB raw > 32 KiB node

  engine.spawn([](Dataflow& f, Dims global) -> sim::Task<> {
    Slab content = Slab::synthetic(Box::whole(global), 1);
    VarDesc var{"u", global, 0};
    EXPECT_TRUE((co_await f.put(0, var, content)).is_ok());
    co_await f.stop(0, 1);
  }(flow, global));
  engine.spawn(flow.dflow_loop(0));
  ErrorCode code = ErrorCode::kOk;
  engine.spawn([](Dataflow& f, Dims global, ErrorCode& out) -> sim::Task<> {
    VarDesc var{"u", global, 0};
    Box whole = Box::whole(global);
    out = (co_await f.get(0, var, whole)).code();
  }(flow, global, code));
  run_all();
  EXPECT_EQ(code, ErrorCode::kOutOfMemory);
}

// Two producers stage tiled slabs over rows cut at 4, each producer's
// slab reaches the two dataflow ranks as chunks cut at column 13, and the
// two consumers get those columns: neither cut is a multiple of the 3 x 5
// period. Every read must hold exactly what the producers put; it stays
// tiled only when both blocks are bitwise equal (a merged read), else it
// is dense.
void read_back_tiled(DecafFixture& f, bool equal_blocks) {
  auto w = f.make_world(2, 2, 2);
  const Dims global = {8, 26};
  const auto prod_boxes = nda::decompose_1d(global, 2, 0);
  const auto con_boxes = nda::decompose_1d(global, 2, 1);
  Slab expect = Slab::zeros(Box::whole(global));
  for (int p = 0; p < 2; ++p) {
    std::vector<double> block(15);
    for (std::size_t k = 0; k < block.size(); ++k) {
      block[k] = 0.5 + static_cast<double>(k) + (equal_blocks ? 0.0 : p);
    }
    const Slab piece = Slab::tiled(prod_boxes[static_cast<std::size_t>(p)],
                                   {3, 5}, std::move(block));
    expect.fill_from(piece);
    f.engine.spawn([](Dataflow& flow, int p, VarDesc var, Slab piece)
                       -> sim::Task<> {
      EXPECT_TRUE((co_await flow.put(p, var, piece)).is_ok());
      co_await flow.stop(p, 1);
    }(*w.flow, p, VarDesc{"u", global, 0}, piece));
  }
  for (int d = 0; d < 2; ++d) f.engine.spawn(w.flow->dflow_loop(d));
  for (int c = 0; c < 2; ++c) {
    f.engine.spawn([](Dataflow& flow, int c, VarDesc var, Slab expect,
                      Box want, bool merged) -> sim::Task<> {
      auto got = co_await flow.get(c, var, want);
      EXPECT_TRUE(got.has_value()) << got.status();
      if (got.has_value()) {
        EXPECT_EQ(got->is_tiled(), merged);
        EXPECT_EQ(got->checksum(), expect.extract(want).checksum());
      }
    }(*w.flow, c, VarDesc{"u", global, 0}, expect,
      con_boxes[static_cast<std::size_t>(c)], equal_blocks));
  }
  f.run_all();
}

TEST_F(DecafFixture, TiledProducersWithEqualBlocksReadMerged) {
  read_back_tiled(*this, /*equal_blocks=*/true);
}

TEST_F(DecafFixture, TiledProducersWithDifferentBlocksReadDense) {
  read_back_tiled(*this, /*equal_blocks=*/false);
}

}  // namespace
}  // namespace imc::decaf
