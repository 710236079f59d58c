// imc::repl: deterministic chain placement, quorum selection,
// DataSpaces/DIMES failover and resilvering, workflow durability
// accounting, and schedule invariance of replicated chaos runs.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/check.h"
#include "common/audit.h"
#include "dataspaces/dataspaces.h"
#include "dimes/dimes.h"
#include "fault/fault.h"
#include "hpc/cluster.h"
#include "net/fabric.h"
#include "net/transport.h"
#include "repl/repl.h"
#include "sim/engine.h"
#include "workflow/workflow.h"

namespace imc::repl {
namespace {

using nda::Box;
using nda::Slab;
using nda::VarDesc;

TEST(ReplPolicy, ChainPlacementIsPureArithmetic) {
  // Position k of region r's chain is (r % ns + k) % ns — no clock, no RNG.
  EXPECT_EQ(chain_position(0, 0, 4), 0);
  EXPECT_EQ(chain_position(0, 1, 4), 1);
  EXPECT_EQ(chain_position(3, 1, 4), 0);  // wraps
  EXPECT_EQ(chain_position(2, 3, 4), 1);
  EXPECT_EQ(chain_position(1, 0, 1), 0);  // degenerate single server
}

TEST(ReplPolicy, FactorAndQuorumClampToTheDeployment) {
  Policy policy;
  policy.factor = 3;
  Coordinator coordinator(policy);
  EXPECT_EQ(coordinator.factor_for(8), 3);
  EXPECT_EQ(coordinator.factor_for(2), 2);  // never more copies than servers
  EXPECT_EQ(coordinator.factor_for(1), 1);
  // Sync mode defaults the quorum to the full factor; async to 1.
  EXPECT_EQ(coordinator.quorum_for(3), 3);
  Policy async_policy = policy;
  async_policy.mode = Mode::kAsync;
  Coordinator async_coordinator(async_policy);
  EXPECT_EQ(async_coordinator.quorum_for(3), 1);
  // An explicit quorum is honored but clamped to [1, factor].
  Policy explicit_policy = policy;
  explicit_policy.ack_quorum = 2;
  Coordinator explicit_coordinator(explicit_policy);
  EXPECT_EQ(explicit_coordinator.quorum_for(3), 2);
  explicit_policy.ack_quorum = 9;
  Coordinator clamped(explicit_policy);
  EXPECT_EQ(clamped.quorum_for(3), 3);
}

// ------------------------------------------------ DataSpaces and DIMES ---

// GCC 12 rejects `(co_await task).is_ok()` inside a template, so the
// fixture's coroutines pass each awaited Status through here.
bool ok(const Status& st) { return st.is_ok(); }

// The library-level fixture over either server group; the crash handling
// under test is the one staging::ServerGroup both libraries share.
template <class Lib>
struct ReplLibFixture : ::testing::Test {
  using Config = std::remove_cvref_t<decltype(std::declval<Lib&>().config())>;

  ReplLibFixture()
      : machine(hpc::titan()),
        cluster(machine),
        fabric(engine, machine),
        ugni(engine, fabric, net::TransportKind::kRdmaUgni) {}

  std::unique_ptr<Lib> deploy(int ns) {
    Config config;
    config.num_servers = ns;
    auto lib = std::make_unique<Lib>(engine, cluster, ugni, config);
    const int nodes =
        (ns + config.servers_per_node - 1) / config.servers_per_node;
    EXPECT_TRUE(lib->deploy(cluster.allocate_nodes(nodes)).is_ok());
    return lib;
  }

  struct Rank {
    net::Endpoint ep;
    std::unique_ptr<mem::ProcessMemory> memory;
    std::unique_ptr<typename Lib::Client> client;
  };
  Rank make_rank(Lib& lib, int pid) {
    const int node = cluster.allocate_nodes(1)[0];
    Rank r;
    r.ep = net::Endpoint{pid, 0, &cluster.node(node)};
    r.memory = std::make_unique<mem::ProcessMemory>(
        engine, "rank" + std::to_string(pid));
    r.client = std::make_unique<typename Lib::Client>(lib, r.ep, *r.memory);
    return r;
  }

  void run_all() {
    engine.run();
    ASSERT_TRUE(engine.process_failures().empty())
        << engine.process_failures()[0];
  }

  // Factor 2 on four servers; server `anchor`, the first of the chain that
  // holds "field", dies after the data is staged. The read must succeed
  // through the replica (a degraded read, not an error) and the background
  // resilver must re-copy the dead server's share onto surviving chain
  // members.
  void crashed_primary_is_transparent(int anchor) {
    Policy policy;
    policy.factor = 2;
    Coordinator coordinator(policy);
    fault::Plan plan;
    plan.server_crashes = {{0.5, anchor}};
    fault::Injector injector(plan);
    BindWorld bind({.fault = &injector, .repl = &coordinator});

    auto lib = deploy(4);
    auto writer = make_rank(*lib, 1);
    auto reader = make_rank(*lib, 2);
    const VarDesc var{kField, {16, 32}, 0};
    Slab source = Slab::synthetic(Box::whole(var.global), 11);

    engine.spawn([](Rank& w, VarDesc v, Slab src) -> sim::Task<> {
      EXPECT_TRUE(ok(co_await w.client->init()));
      EXPECT_TRUE(ok(co_await w.client->put(v, src)));
      EXPECT_TRUE(ok(co_await w.client->publish(v)));
    }(writer, var, source));
    engine.spawn([](sim::Engine& e, Rank& r, VarDesc v, Slab src)
                     -> sim::Task<> {
      EXPECT_TRUE(ok(co_await r.client->init()));
      EXPECT_TRUE(ok(co_await r.client->wait_version(v.name, 0)));
      co_await e.sleep(1.0);  // read after the crash (and the resilver)
      auto got = co_await r.client->get(v, Box::whole(v.global));
      EXPECT_TRUE(got.has_value()) << got.status();
      if (got.has_value()) {
        EXPECT_DOUBLE_EQ(got->checksum(), src.checksum());
      }
    }(engine, reader, var, source));
    run_all();

    const Stats& stats = coordinator.stats();
    EXPECT_GT(stats.replica_puts, 0u);     // puts wrote chain copies
    EXPECT_EQ(stats.objects_lost, 0u);     // nothing became unreadable
    EXPECT_GT(stats.degraded_gets, 0u);    // served past the corpse
    EXPECT_GT(stats.resilver_copies, 0u);  // redundancy was rebuilt
    EXPECT_EQ(stats.restores, 1u);
    EXPECT_GE(stats.time_to_restore, 0.0);

    lib->shutdown();
    engine.run();
  }

  // Unreplicated master crash with a parked WaitVersion waiter and an
  // in-flight Publish. Every waiter must fail with a typed error (not
  // hang), the publisher must see the refusal, and teardown must leave a
  // clean leak ledger. `noun` names the library's servers.
  void master_crash_fails_parked_waiters(const std::string& noun) {
    audit::Auditor auditor;
    fault::Plan plan;
    plan.server_crashes = {{0.5, 0}};
    fault::Injector injector(plan);
    BindWorld bind({.auditor = &auditor, .fault = &injector});

    auto lib = deploy(2);
    auto writer = make_rank(*lib, 1);
    auto reader = make_rank(*lib, 2);
    const VarDesc var{kField, {8, 16}, 0};
    Slab source = Slab::synthetic(Box::whole(var.global), 3);

    Status waited = Status::ok();
    Status published = Status::ok();
    engine.spawn([](sim::Engine& e, Rank& w, VarDesc v, Slab src,
                    Status* out) -> sim::Task<> {
      EXPECT_TRUE(ok(co_await w.client->init()));
      EXPECT_TRUE(ok(co_await w.client->put(v, src)));
      co_await e.sleep(1.0);  // publish only after the master died
      *out = co_await w.client->publish(v);
    }(engine, writer, var, source, &published));
    engine.spawn([](Rank& r, VarDesc v, Status* out) -> sim::Task<> {
      EXPECT_TRUE(ok(co_await r.client->init()));
      // Parks on the version board long before the publish arrives; the
      // crash watcher must wake it with the typed error.
      *out = co_await r.client->wait_version(v.name, 0);
    }(reader, var, &waited));
    run_all();

    EXPECT_EQ(waited.code(), ErrorCode::kConnectionFailed);
    EXPECT_EQ(waited.message(),
              noun + " server 0 crashed (no board replica left)");
    EXPECT_EQ(published.code(), ErrorCode::kConnectionFailed) << published;
    EXPECT_EQ(published.message(), noun + " server 0 crashed");

    writer.client->finalize();
    reader.client->finalize();
    lib->shutdown();
    engine.run();
    EXPECT_TRUE(auditor.leaks().empty())
        << "leaked: " << auditor.leaks().front();
  }

  static constexpr const char* kField = "field";

  sim::Engine engine;
  hpc::MachineConfig machine;
  hpc::Cluster cluster;
  net::Fabric fabric;
  net::RdmaTransport ugni;
};

using ReplDsFixture = ReplLibFixture<dataspaces::DataSpaces>;
using ReplDimesFixture = ReplLibFixture<dimes::Dimes>;

TEST_F(ReplDsFixture, CrashedPrimaryIsTransparentAndResilverRestoresCopies) {
  crashed_primary_is_transparent(/*owner of region 0=*/0);
}

TEST_F(ReplDimesFixture,
       CrashedPrimaryIsTransparentAndResilverRestoresCopies) {
  // DIMES anchors a variable's directory chain at hash(name) % ns.
  crashed_primary_is_transparent(
      static_cast<int>(std::hash<std::string>{}(kField) % 4));
}

TEST_F(ReplDsFixture, LosingEveryReplicaSurfacesTypedLossAndCountsIt) {
  // Factor 2 on two servers: when both die (satellite 1's crash list), the
  // read exhausts the whole chain — a typed error and an objects_lost tick,
  // the one case replication admits data loss.
  Policy policy;
  policy.factor = 2;
  Coordinator coordinator(policy);
  fault::Plan plan;
  plan.server_crashes.push_back({0.5, 0});
  plan.server_crashes.push_back({0.6, 1});
  fault::Injector injector(plan);
  BindWorld bind({.fault = &injector, .repl = &coordinator});

  auto ds = deploy(2);
  auto writer = make_rank(*ds, 1);
  auto reader = make_rank(*ds, 2);
  const VarDesc var{"field", {8, 16}, 0};
  Slab source = Slab::synthetic(Box::whole(var.global), 7);

  engine.spawn([](Rank& w, VarDesc v, Slab src) -> sim::Task<> {
    EXPECT_TRUE((co_await w.client->init()).is_ok());
    EXPECT_TRUE((co_await w.client->put(v, src)).is_ok());
    EXPECT_TRUE((co_await w.client->publish(v)).is_ok());
  }(writer, var, source));
  engine.spawn([](sim::Engine& e, Rank& r, VarDesc v) -> sim::Task<> {
    EXPECT_TRUE((co_await r.client->init()).is_ok());
    EXPECT_TRUE((co_await r.client->wait_version(v.name, 0)).is_ok());
    co_await e.sleep(1.0);  // both crashes have fired by now
    auto got = co_await r.client->get(v, Box::whole(v.global));
    EXPECT_FALSE(got.has_value());
    EXPECT_NE(got.status().message().find("lost"), std::string::npos)
        << got.status();
  }(engine, reader, var));
  run_all();

  EXPECT_GT(coordinator.stats().objects_lost, 0u);
  EXPECT_EQ(injector.stats().server_crashes, 2u);

  ds->shutdown();
  engine.run();
}

TEST_F(ReplDimesFixture, LosingEveryReplicaSurfacesTypedLossAndCountsIt) {
  // DIMES replicates the directory entry, not the data: with both metadata
  // servers dead the query exhausts the chain and returns the last refusal
  // as is, counted as one lost object. The chain for "field" on two
  // servers starts at server 1, so server 0 refuses last.
  Policy policy;
  policy.factor = 2;
  Coordinator coordinator(policy);
  fault::Plan plan;
  plan.server_crashes.push_back({0.5, 0});
  plan.server_crashes.push_back({0.6, 1});
  fault::Injector injector(plan);
  BindWorld bind({.fault = &injector, .repl = &coordinator});

  auto dimes = deploy(2);
  auto writer = make_rank(*dimes, 1);
  auto reader = make_rank(*dimes, 2);
  const VarDesc var{kField, {8, 16}, 0};
  Slab source = Slab::synthetic(Box::whole(var.global), 7);

  Status got_status = Status::ok();
  engine.spawn([](sim::Engine& e, Rank& w, VarDesc v, Slab src)
                   -> sim::Task<> {
    EXPECT_TRUE(ok(co_await w.client->init()));
    EXPECT_TRUE(ok(co_await w.client->put(v, src)));
    EXPECT_TRUE(ok(co_await w.client->publish(v)));
    co_await e.sleep(2.0);  // serve the reader's pulls, if any
  }(engine, writer, var, source));
  engine.spawn([](sim::Engine& e, Rank& r, VarDesc v,
                  Status* out) -> sim::Task<> {
    EXPECT_TRUE(ok(co_await r.client->init()));
    EXPECT_TRUE(ok(co_await r.client->wait_version(v.name, 0)));
    co_await e.sleep(1.0);  // both crashes have fired by now
    auto got = co_await r.client->get(v, Box::whole(v.global));
    EXPECT_FALSE(got.has_value());
    if (!got.has_value()) *out = got.status();
  }(engine, reader, var, &got_status));
  run_all();

  EXPECT_EQ(got_status.code(), ErrorCode::kConnectionFailed);
  EXPECT_EQ(got_status.message(), "metadata server 0 crashed");
  EXPECT_EQ(coordinator.stats().objects_lost, 1u);
  EXPECT_EQ(injector.stats().server_crashes, 2u);

  writer.client->finalize();
  reader.client->finalize();
  dimes->shutdown();
  engine.run();
}

TEST_F(ReplDsFixture, MasterCrashFailsParkedWaitersTypedWithCleanLedger) {
  master_crash_fails_parked_waiters("staging");
}

TEST_F(ReplDimesFixture, MasterCrashFailsParkedWaitersTypedWithCleanLedger) {
  master_crash_fails_parked_waiters("metadata");
}

// --------------------------------------------------------- workflow ------

workflow::Spec replicated_spec(workflow::MethodSel method, int factor) {
  workflow::Spec spec;
  spec.app = workflow::AppSel::kLaplace;
  spec.method = method;
  spec.machine = hpc::titan();
  spec.nsim = 8;
  spec.nana = 4;
  spec.steps = 2;
  spec.laplace_rows = 64;
  spec.laplace_cols_per_proc = 64;
  spec.num_servers = 4;  // a spare chain member for the resilver to target
  spec.repl.factor = factor;
  return spec;
}

TEST(ReplWorkflow, ReplicatedStagingSurvivesAServerCrashWithoutFallback) {
  workflow::Spec spec =
      replicated_spec(workflow::MethodSel::kDataspacesNative, 2);
  spec.fault.server_crashes = {{3e-3, 0}};  // mid-run: data staged, reads left
  spec.fallback.to_mpi_io = true;  // must NOT trigger: replicas absorb it
  workflow::RunResult result = workflow::run(spec);
  EXPECT_TRUE(result.ok) << result.failure_summary();
  EXPECT_FALSE(result.fault.fallback_activated);
  EXPECT_EQ(result.repl.objects_lost, 0u);
  EXPECT_GT(result.repl.replica_puts, 0u);
  EXPECT_GT(result.repl.degraded_gets, 0u);    // reads routed past the corpse
  EXPECT_GT(result.repl.resilver_copies, 0u);  // lost copies were rebuilt
  EXPECT_EQ(result.repl.factor, 2);
  EXPECT_EQ(result.fault.server_crashes, 1u);
  EXPECT_GE(result.repl.restores, 1u);
  EXPECT_GT(result.repl.time_to_restore, 0.0);
  EXPECT_TRUE(result.leaks.empty()) << result.leaks.front();

  // Durability contract: the degraded run computes exactly what a
  // fault-free unreplicated run computes.
  workflow::RunResult clean =
      workflow::run(replicated_spec(workflow::MethodSel::kDataspacesNative, 1));
  ASSERT_TRUE(clean.ok) << clean.failure_summary();
  EXPECT_DOUBLE_EQ(result.sample_analysis_value,
                   clean.sample_analysis_value);
}

TEST(ReplWorkflow, UnreplicatedRunWithTheSamePlanStillFallsBack) {
  workflow::Spec spec =
      replicated_spec(workflow::MethodSel::kDataspacesNative, 1);
  spec.fault.server_crashes = {{1e-3, 0}};
  spec.fallback.to_mpi_io = true;
  workflow::RunResult result = workflow::run(spec);
  EXPECT_TRUE(result.ok) << result.failure_summary();
  EXPECT_TRUE(result.fault.fallback_activated);
  EXPECT_FALSE(result.recovered_failures.empty());
  EXPECT_EQ(result.repl.replica_puts, 0u);  // factor 1 writes no copies
}

TEST(ReplWorkflow, DimesDirectoryReplicationSurvivesAMetadataCrash) {
  workflow::Spec spec = replicated_spec(workflow::MethodSel::kDimesNative, 2);
  spec.fault.server_crashes = {{1e-3, 0}};
  spec.fallback.to_mpi_io = true;
  workflow::RunResult result = workflow::run(spec);
  EXPECT_TRUE(result.ok) << result.failure_summary();
  EXPECT_FALSE(result.fault.fallback_activated);
  EXPECT_EQ(result.repl.objects_lost, 0u);
  EXPECT_GT(result.repl.replica_puts, 0u);
  EXPECT_TRUE(result.leaks.empty()) << result.leaks.front();
}

TEST(ReplWorkflow, AsyncModeReachesQuorumAndStillWritesReplicas) {
  workflow::Spec spec =
      replicated_spec(workflow::MethodSel::kDataspacesNative, 2);
  spec.repl.mode = Mode::kAsync;
  workflow::RunResult result = workflow::run(spec);
  EXPECT_TRUE(result.ok) << result.failure_summary();
  EXPECT_GT(result.repl.replica_puts, 0u);
  EXPECT_EQ(result.repl.objects_lost, 0u);
  EXPECT_TRUE(result.leaks.empty()) << result.leaks.front();
}

TEST(ReplWorkflow, TwoCrashesAgainstFactorThreeStayLossless) {
  // Satellite 1's crash list driving the tentpole: two scheduled crashes
  // against factor 3 — the second racing the first's resilver — must still
  // lose nothing.
  workflow::Spec spec =
      replicated_spec(workflow::MethodSel::kDataspacesNative, 3);
  spec.fault.server_crashes.push_back({3e-3, 0});
  spec.fault.server_crashes.push_back({4e-3, 1});  // races crash 0's resilver
  spec.fallback.to_mpi_io = true;
  workflow::RunResult result = workflow::run(spec);
  EXPECT_TRUE(result.ok) << result.failure_summary();
  EXPECT_FALSE(result.fault.fallback_activated);
  EXPECT_EQ(result.repl.objects_lost, 0u);
  EXPECT_EQ(result.fault.server_crashes, 2u);
  EXPECT_GE(result.repl.restores, 2u);
  EXPECT_TRUE(result.leaks.empty()) << result.leaks.front();
}

TEST(ReplWorkflow, FactorOneWithoutFaultsBindsNoCoordinator) {
  workflow::Spec spec =
      replicated_spec(workflow::MethodSel::kDataspacesNative, 1);
  workflow::RunResult result = workflow::run(spec);
  EXPECT_TRUE(result.ok) << result.failure_summary();
  EXPECT_EQ(result.repl.replica_puts, 0u);
  EXPECT_EQ(result.repl.degraded_gets, 0u);
  EXPECT_EQ(result.repl.restores, 0u);
}

// ------------------------------------------------- determinism harness ----

TEST(ReplDeterminism, ReplicatedCrashAndResilverAreScheduleInvariant) {
  workflow::Spec spec =
      replicated_spec(workflow::MethodSel::kDataspacesNative, 2);
  // Degraded reads AND resilver copies.
  spec.fault.server_crashes = {{3e-3, 0}};
  check::Options options;
  options.repeats = 2;
  check::Report report = check::run_deterministic(spec, options);
  EXPECT_TRUE(report.deterministic) << report.to_string();
}

TEST(ReplDeterminism, DimesCrashAndResilverAreScheduleInvariant) {
  // The chain primary of "field" (hash % 4 = 3) dies mid-run: degraded
  // directory queries and descriptor resilver copies, under every
  // same-instant tie-break.
  workflow::Spec spec = replicated_spec(workflow::MethodSel::kDimesNative, 2);
  spec.fault.server_crashes.push_back(
      {3e-3, static_cast<int>(std::hash<std::string>{}("field") % 4)});
  check::Options options;
  options.repeats = 2;
  check::Report report = check::run_deterministic(spec, options);
  EXPECT_TRUE(report.deterministic) << report.to_string();
}

TEST(ReplDeterminism, ReplicaPlacementIsIdenticalAcrossRuns) {
  // Two identical replicated runs must produce byte-identical digests —
  // placement is pure arithmetic, so nothing may depend on pop order.
  workflow::Spec spec =
      replicated_spec(workflow::MethodSel::kDataspacesNative, 2);
  spec.fault.server_crashes = {{3e-3, 0}};
  workflow::RunResult a = workflow::run(spec);
  workflow::RunResult b = workflow::run(spec);
  EXPECT_EQ(a.run_digest, b.run_digest);
  EXPECT_EQ(a.repl.replica_puts, b.repl.replica_puts);
  EXPECT_EQ(a.repl.degraded_gets, b.repl.degraded_gets);
  EXPECT_EQ(a.repl.resilver_copies, b.repl.resilver_copies);
  EXPECT_DOUBLE_EQ(a.repl.time_to_restore, b.repl.time_to_restore);
}

}  // namespace
}  // namespace imc::repl
