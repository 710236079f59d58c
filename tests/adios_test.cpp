#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "adios/adios.h"
#include "adios/xml.h"
#include "common/units.h"
#include "hpc/cluster.h"
#include "net/fabric.h"
#include "sim/engine.h"
#include "staging/client.h"

namespace imc::adios {
namespace {

constexpr const char* kConfigXml = R"(<?xml version="1.0"?>
<!-- The LAMMPS workflow configuration from the study. -->
<adios-config host-language="C">
  <adios-group name="restart">
    <var name="atoms" dimensions="5,nprocs,512000" type="double"/>
    <var name="step" dimensions="1" type="unsigned long"/>
  </adios-group>
  <method group="restart" method="DATASPACES" parameters="lock_type=2"/>
  <buffer size-MB="40"/>
  <analysis stats="off"/>
</adios-config>)";

TEST(Xml, ParsesNestedElements) {
  auto doc = parse_xml("<a x=\"1\"><b y=\"2\"/><b y=\"3\"/><c/></a>");
  ASSERT_TRUE(doc.has_value()) << doc.status();
  EXPECT_EQ(doc->name, "a");
  EXPECT_EQ(doc->attr("x"), "1");
  EXPECT_EQ(doc->children.size(), 3u);
  EXPECT_EQ(doc->children_named("b").size(), 2u);
  EXPECT_EQ(doc->children_named("b")[1]->attr("y"), "3");
  EXPECT_NE(doc->child("c"), nullptr);
  EXPECT_EQ(doc->child("missing"), nullptr);
}

TEST(Xml, SkipsCommentsAndDeclarations) {
  auto doc = parse_xml(
      "<?xml version=\"1.0\"?><!-- hi --><root><!-- inner -->text<x/></root>");
  ASSERT_TRUE(doc.has_value()) << doc.status();
  EXPECT_EQ(doc->children.size(), 1u);
}

TEST(Xml, RejectsMismatchedTags) {
  auto doc = parse_xml("<a><b></a></b>");
  EXPECT_FALSE(doc.has_value());
  EXPECT_EQ(doc.code(), ErrorCode::kInvalidArgument);
}

TEST(Xml, RejectsTrailingContent) {
  EXPECT_FALSE(parse_xml("<a/><b/>").has_value());
}

TEST(Xml, RejectsUnterminatedAttribute) {
  EXPECT_FALSE(parse_xml("<a x=\"1/>").has_value());
}

TEST(Config, ParsesFullDocument) {
  auto config = parse_config(kConfigXml);
  ASSERT_TRUE(config.has_value()) << config.status();
  ASSERT_EQ(config->groups.size(), 1u);
  const GroupDecl& group = config->groups[0];
  EXPECT_EQ(group.name, "restart");
  ASSERT_EQ(group.vars.size(), 2u);
  EXPECT_EQ(group.vars[0].name, "atoms");
  EXPECT_EQ(group.vars[0].dimensions, "5,nprocs,512000");
  EXPECT_EQ(group.method, Method::kDataspaces);
  EXPECT_EQ(group.parameters, "lock_type=2");
  EXPECT_EQ(config->buffer_bytes, 40 * kMiB);
  EXPECT_FALSE(config->stats);
}

TEST(Config, MethodForUnknownGroupFails) {
  auto config = parse_config(
      "<adios-config><adios-group name=\"a\"><var name=\"v\" "
      "dimensions=\"4\"/></adios-group>"
      "<method group=\"zzz\" method=\"MPI\"/></adios-config>");
  EXPECT_FALSE(config.has_value());
}

TEST(Config, UnknownMethodFails) {
  auto config = parse_config(
      "<adios-config><adios-group name=\"a\"><var name=\"v\" "
      "dimensions=\"4\"/></adios-group>"
      "<method group=\"a\" method=\"HDF9\"/></adios-config>");
  EXPECT_FALSE(config.has_value());
}

TEST(Config, ResolveDimsSubstitutesSymbols) {
  auto dims = resolve_dims("5, nprocs ,512000", {{"nprocs", 64}});
  ASSERT_TRUE(dims.has_value()) << dims.status();
  EXPECT_EQ(*dims, (nda::Dims{5, 64, 512000}));
}

TEST(Config, ResolveDimsUnknownSymbolFails) {
  EXPECT_FALSE(resolve_dims("5,unknown", {}).has_value());
}

TEST(Config, ResolveDimsBeyondMaxRankIsInvalid) {
  auto four = resolve_dims("1,2,3,n", {{"n", 4}});
  ASSERT_TRUE(four.has_value()) << four.status();
  EXPECT_EQ(four->size(), nda::Dims::kMaxRank);
  auto five = resolve_dims("1,2,3,n,5", {{"n", 4}});
  EXPECT_EQ(five.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(five.status().to_string().find("more than 4 dimensions"),
            std::string::npos)
      << five.status();
}

TEST(Methods, RoundTripNames) {
  EXPECT_EQ(*parse_method("MPI"), Method::kMpiIo);
  EXPECT_EQ(*parse_method("DATASPACES"), Method::kDataspaces);
  EXPECT_EQ(*parse_method("DIMES"), Method::kDimes);
  EXPECT_EQ(*parse_method("FLEXPATH"), Method::kFlexpath);
  EXPECT_EQ(to_string(Method::kDimes), "DIMES");
}

// --- Io over MPI-IO (the self-contained client) ----------------------------

struct IoFixture : ::testing::Test {
  IoFixture()
      : machine(hpc::testbed()), cluster(machine), fabric(engine, machine),
        fs(engine, fabric, machine) {
    cluster.allocate_nodes(2);
    config.buffer_bytes = 4 * kMiB;
    config.stats = true;
  }

  // ADIOS over the MPI-IO client of a rank on `node`.
  Io io(const AdiosConfig& cfg, int node, staging::Role role,
        mem::ProcessMemory& memory) {
    return Io(engine, cfg,
              std::make_unique<MpiIoClient>(fs, cluster.node(node), role,
                                            "/scratch/t.bp"),
              memory);
  }

  sim::Engine engine;
  hpc::MachineConfig machine;
  hpc::Cluster cluster;
  net::Fabric fabric;
  lustre::FileSystem fs;
  AdiosConfig config;
};

TEST_F(IoFixture, WriteReadRoundTripThroughLustre) {
  mem::ProcessMemory wmem(engine, "w"), rmem(engine, "r");
  Io writer = io(config, 0, staging::Role::kWriter, wmem);
  Io reader = io(config, 1, staging::Role::kReader, rmem);
  const nda::Dims dims = {16, 16};
  nda::Slab source = nda::Slab::synthetic(nda::Box::whole(dims), 99);

  engine.spawn([](Io& w, Io& r, nda::Dims dims, nda::Slab src) -> sim::Task<> {
    nda::VarDesc var{"u", dims, 0};
    EXPECT_TRUE((co_await w.open()).is_ok());
    EXPECT_TRUE((co_await w.begin_step(0)).is_ok());
    EXPECT_TRUE((co_await w.put(var, src)).is_ok());
    EXPECT_TRUE((co_await w.end_step(0)).is_ok());
    EXPECT_TRUE((co_await w.commit(var)).is_ok());

    EXPECT_TRUE((co_await r.open()).is_ok());
    EXPECT_TRUE((co_await r.begin_step(0)).is_ok());
    nda::Box whole = nda::Box::whole(dims);
    auto got = co_await r.get(var, whole);
    EXPECT_TRUE(got.has_value()) << got.status();
    if (got.has_value()) {
      EXPECT_DOUBLE_EQ(got->checksum(), src.checksum());
    }
  }(writer, reader, dims, source));
  engine.run();
  ASSERT_TRUE(engine.process_failures().empty())
      << engine.process_failures()[0];
}

TEST_F(IoFixture, BufferOverflowFailsLikeAdios1x) {
  mem::ProcessMemory wmem(engine, "w");
  config.buffer_bytes = 1 * kKiB;
  Io writer = io(config, 0, staging::Role::kWriter, wmem);
  Status status;
  engine.spawn([](Io& w, Status& out) -> sim::Task<> {
    const nda::Dims dims = {64, 64};  // 32 KiB > 1 KiB buffer
    nda::VarDesc var{"u", dims, 0};
    nda::Slab content = nda::Slab::synthetic(nda::Box::whole(dims), 1);
    EXPECT_TRUE((co_await w.open()).is_ok());
    EXPECT_TRUE((co_await w.begin_step(0)).is_ok());
    out = co_await w.put(var, content);
  }(writer, status));
  engine.run();
  EXPECT_EQ(status.code(), ErrorCode::kOutOfMemory);
}

TEST_F(IoFixture, WriteBeforeOpenFails) {
  mem::ProcessMemory wmem(engine, "w");
  Io writer = io(config, 0, staging::Role::kWriter, wmem);
  Status status;
  engine.spawn([](Io& w, Status& out) -> sim::Task<> {
    const nda::Dims dims = {4};
    nda::VarDesc var{"u", dims, 0};
    nda::Slab content = nda::Slab::zeros(nda::Box::whole(dims));
    out = co_await w.put(var, content);
  }(writer, status));
  engine.run();
  EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition);
}

TEST_F(IoFixture, StatsPassCostsTimeWhenEnabled) {
  mem::ProcessMemory m1(engine, "a"), m2(engine, "b");
  AdiosConfig with_stats = config;
  with_stats.stats = true;
  AdiosConfig no_stats = config;
  no_stats.stats = false;
  Io w1 = io(with_stats, 0, staging::Role::kWriter, m1);
  Io w2 = io(no_stats, 1, staging::Role::kWriter, m2);
  double t_stats = 0, t_plain = 0;
  engine.spawn([](sim::Engine& e, Io& a, Io& b, double& ta,
                  double& tb) -> sim::Task<> {
    const nda::Dims dims = {256, 256};
    nda::VarDesc var{"u", dims, 0};
    nda::Slab content = nda::Slab::synthetic(nda::Box::whole(dims), 1);
    EXPECT_TRUE((co_await a.open()).is_ok());
    EXPECT_TRUE((co_await b.open()).is_ok());
    double t0 = e.now();
    EXPECT_TRUE((co_await a.put(var, content)).is_ok());
    ta = e.now() - t0;
    t0 = e.now();
    EXPECT_TRUE((co_await b.put(var, content)).is_ok());
    tb = e.now() - t0;
  }(engine, w1, w2, t_stats, t_plain));
  engine.run();
  EXPECT_GT(t_stats, t_plain);
}

TEST_F(IoFixture, PutOutsideAStepFailsAtTheFlush) {
  mem::ProcessMemory wmem(engine, "w");
  Io writer = io(config, 0, staging::Role::kWriter, wmem);
  Status status;
  engine.spawn([](Io& w, Status& out) -> sim::Task<> {
    const nda::Dims dims = {4};
    nda::VarDesc var{"u", dims, 0};
    nda::Slab content = nda::Slab::zeros(nda::Box::whole(dims));
    EXPECT_TRUE((co_await w.open()).is_ok());
    EXPECT_TRUE((co_await w.put(var, content)).is_ok());  // buffered
    out = co_await w.end_step(0);  // no begin_step: no BP file to flush to
  }(writer, status));
  engine.run();
  EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(wmem.current(mem::Tag::kLibrary), 0u);
}

// --- The decorator over a recording client ----------------------------------

// Logs every call Io makes on the client it wraps, with the bytes the
// group buffer holds at that moment.
class RecordingClient final : public staging::Client {
 public:
  RecordingClient(mem::ProcessMemory& memory, std::vector<std::string>& log)
      : memory_(&memory), log_(&log) {}

  sim::Task<Status> open() override {
    record("open");
    co_return Status::ok();
  }
  sim::Task<Status> begin_step(int step) override {
    record("begin_step " + std::to_string(step));
    co_return Status::ok();
  }
  sim::Task<Status> put(const nda::VarDesc& var,
                        const nda::Slab& slab) override {
    record("put " + var.name + " " + slab.box().to_string());
    co_return Status::ok();
  }
  sim::Task<Status> end_step(int step) override {
    record("end_step " + std::to_string(step));
    co_return Status::ok();
  }
  sim::Task<Result<nda::Slab>> get(const nda::VarDesc&,
                                   const nda::Box& box) override {
    record("get");
    co_return nda::Slab::zeros(box);
  }
  sim::Task<> finalize() override {
    record("finalize");
    co_return;
  }

 private:
  void record(const std::string& call) {
    log_->push_back(call + " buffer=" +
                    std::to_string(memory_->current(mem::Tag::kLibrary)));
  }

  mem::ProcessMemory* memory_;
  std::vector<std::string>* log_;
};

TEST(IoDecorator, BuffersPutsAndFlushesThemInOrderAtEndStep) {
  sim::Engine engine;
  mem::ProcessMemory memory(engine, "w");
  AdiosConfig config;
  config.buffer_bytes = 1 * kMiB;
  config.stats = false;
  std::vector<std::string> log;
  Io io(engine, config, std::make_unique<RecordingClient>(memory, log),
        memory);
  engine.spawn([](Io& w, std::vector<std::string>& log) -> sim::Task<> {
    const nda::Dims dims = {8, 8};  // two 256 B halves
    const nda::VarDesc a{"a", dims, 0}, b{"b", dims, 0};
    const nda::Slab whole = nda::Slab::synthetic(nda::Box::whole(dims), 3);
    const nda::Slab top = whole.extract(nda::Box({0, 0}, {4, 8}));
    const nda::Slab bottom = whole.extract(nda::Box({4, 0}, {8, 8}));
    EXPECT_TRUE((co_await w.open()).is_ok());
    EXPECT_TRUE((co_await w.begin_step(0)).is_ok());
    EXPECT_TRUE((co_await w.put(a, top)).is_ok());
    EXPECT_TRUE((co_await w.put(b, bottom)).is_ok());
    // Both puts sit in the buffer: nothing reached the inner client yet.
    EXPECT_EQ(log.size(), 2u);
    EXPECT_TRUE((co_await w.end_step(0)).is_ok());
    co_await w.finalize();
  }(io, log));
  engine.run();
  ASSERT_TRUE(engine.process_failures().empty())
      << engine.process_failures()[0];
  const std::vector<std::string> expected = {
      "open buffer=0",
      "begin_step 0 buffer=0",
      "put a [0..4, 0..8) buffer=512",
      "put b [4..8, 0..8) buffer=256",
      "end_step 0 buffer=0",
      "finalize buffer=0"};
  EXPECT_EQ(log, expected);
}

TEST(IoDecorator, BufferOverflowFailsBeforeAnyInnerCall) {
  sim::Engine engine;
  mem::ProcessMemory memory(engine, "w");
  AdiosConfig config;
  config.buffer_bytes = 1 * kKiB;
  std::vector<std::string> log;
  Io io(engine, config, std::make_unique<RecordingClient>(memory, log),
        memory);
  Status status;
  engine.spawn([](Io& w, Status& out) -> sim::Task<> {
    const nda::Dims dims = {64, 64};  // 32 KiB > 1 KiB buffer
    const nda::VarDesc var{"u", dims, 0};
    const nda::Slab content = nda::Slab::synthetic(nda::Box::whole(dims), 1);
    EXPECT_TRUE((co_await w.open()).is_ok());
    out = co_await w.put(var, content);
    EXPECT_TRUE((co_await w.end_step(0)).is_ok());
  }(io, status));
  engine.run();
  EXPECT_EQ(status.code(), ErrorCode::kOutOfMemory);
  const std::vector<std::string> expected = {"open buffer=0",
                                             "end_step 0 buffer=0"};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(memory.peak(), 0u);
}

}  // namespace
}  // namespace imc::adios
