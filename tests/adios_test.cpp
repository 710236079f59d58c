#include <gtest/gtest.h>

#include <memory>

#include "adios/adios.h"
#include "adios/xml.h"
#include "common/units.h"
#include "hpc/cluster.h"
#include "net/fabric.h"
#include "sim/engine.h"

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

// --- Io over MPI-IO (the self-contained backend) ---------------------------

struct IoFixture : ::testing::Test {
  IoFixture()
      : machine(hpc::testbed()), cluster(machine), fabric(engine, machine),
        fs(engine, fabric, machine) {
    cluster.allocate_nodes(2);
    config.buffer_bytes = 4 * kMiB;
    config.stats = true;
    group.name = "g";
    group.method = Method::kMpiIo;
  }

  Io::Backends backends(int node) {
    Io::Backends b;
    b.lustre = &fs;
    b.node = &cluster.node(node);
    return b;
  }

  sim::Engine engine;
  hpc::MachineConfig machine;
  hpc::Cluster cluster;
  net::Fabric fabric;
  lustre::FileSystem fs;
  AdiosConfig config;
  GroupDecl group;
};

TEST_F(IoFixture, WriteReadRoundTripThroughLustre) {
  mem::ProcessMemory wmem(engine, "w"), rmem(engine, "r");
  Io writer(engine, config, group, backends(0), wmem);
  Io reader(engine, config, group, backends(1), rmem);
  const nda::Dims dims = {16, 16};
  nda::Slab source = nda::Slab::synthetic(nda::Box::whole(dims), 99);

  engine.spawn([](Io& w, Io& r, nda::Dims dims, nda::Slab src) -> sim::Task<> {
    nda::VarDesc var{"u", dims, 0};
    EXPECT_TRUE((co_await w.open_write("/scratch/t.bp")).is_ok());
    EXPECT_TRUE((co_await w.write(var, src)).is_ok());
    EXPECT_TRUE((co_await w.close()).is_ok());
    EXPECT_TRUE((co_await w.commit(var)).is_ok());

    EXPECT_TRUE((co_await r.open_read("/scratch/t.bp")).is_ok());
    nda::Box whole = nda::Box::whole(dims);
    auto got = co_await r.read(var, whole);
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
  Io writer(engine, config, group, backends(0), wmem);
  Status status;
  engine.spawn([](Io& w, Status& out) -> sim::Task<> {
    const nda::Dims dims = {64, 64};  // 32 KiB > 1 KiB buffer
    nda::VarDesc var{"u", dims, 0};
    nda::Slab content = nda::Slab::synthetic(nda::Box::whole(dims), 1);
    EXPECT_TRUE((co_await w.open_write("/scratch/b.bp")).is_ok());
    out = co_await w.write(var, content);
  }(writer, status));
  engine.run();
  EXPECT_EQ(status.code(), ErrorCode::kOutOfMemory);
}

TEST_F(IoFixture, WriteBeforeOpenFails) {
  mem::ProcessMemory wmem(engine, "w");
  Io writer(engine, config, group, backends(0), wmem);
  Status status;
  engine.spawn([](Io& w, Status& out) -> sim::Task<> {
    const nda::Dims dims = {4};
    nda::VarDesc var{"u", dims, 0};
    nda::Slab content = nda::Slab::zeros(nda::Box::whole(dims));
    out = co_await w.write(var, content);
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
  Io w1(engine, with_stats, group, backends(0), m1);
  Io w2(engine, no_stats, group, backends(1), m2);
  double t_stats = 0, t_plain = 0;
  engine.spawn([](sim::Engine& e, Io& a, Io& b, double& ta,
                  double& tb) -> sim::Task<> {
    const nda::Dims dims = {256, 256};
    nda::VarDesc var{"u", dims, 0};
    nda::Slab content = nda::Slab::synthetic(nda::Box::whole(dims), 1);
    EXPECT_TRUE((co_await a.open_write("/scratch/s1.bp")).is_ok());
    EXPECT_TRUE((co_await b.open_write("/scratch/s2.bp")).is_ok());
    double t0 = e.now();
    EXPECT_TRUE((co_await a.write(var, content)).is_ok());
    ta = e.now() - t0;
    t0 = e.now();
    EXPECT_TRUE((co_await b.write(var, content)).is_ok());
    tb = e.now() - t0;
  }(engine, w1, w2, t_stats, t_plain));
  engine.run();
  EXPECT_GT(t_stats, t_plain);
}

}  // namespace
}  // namespace imc::adios
