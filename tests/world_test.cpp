// imc::World: the one binding through which every hook reaches its world.
// Each of the eight fields binds, nests and restores through BindWorld and
// reads its inert default when unbound; workflow::run returns with the
// caller's World restored (the MPI-IO fallback replay included) and, in a
// sweep job, charges the job's WorldContext ledger — one ledger per world.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/audit.h"
#include "common/check.h"
#include "common/log.h"
#include "common/world.h"
#include "fault/fault.h"
#include "prof/prof.h"
#include "repl/repl.h"
#include "sim/engine.h"
#include "sweep/sweep.h"
#include "trace/trace.h"
#include "workflow/workflow.h"

namespace imc {
namespace {

using workflow::RunResult;
using workflow::Spec;

// Two objects of every field's type: the outer and the nested binding.
struct Objects {
  sim::Engine engine;
  audit::Auditor auditors[2];
  arena::Arena arenas[2];
  fault::Injector injectors[2] = {fault::Injector(fault::Plan{}),
                                  fault::Injector(fault::Plan{})};
  repl::Coordinator coordinators[2] = {repl::Coordinator(repl::Policy{}),
                                       repl::Coordinator(repl::Policy{})};
  trace::Recorder recorders[2] = {trace::Recorder(engine, "outer", 16),
                                  trace::Recorder(engine, "inner", 16)};
  prof::Meter meters[2] = {prof::Meter("outer"), prof::Meter("inner")};
  LogText logs[2];
  std::vector<trace::RunChunk> chunks[2];

  World binding(int i) {
    return World{&auditors[i],  &arenas[i], &injectors[i], &coordinators[i],
                 &recorders[i], &meters[i], &logs[i],      &chunks[i]};
  }
};

// One row per World field: how to read it and copy it between Worlds,
// what the hooks see through its accessor (log and chunks have none but
// the field), and what that accessor answers with nothing bound.
struct Field {
  const char* name;
  const void* (*get)(const World&);
  void (*copy)(World& to, const World& from);
  const void* (*accessor)();
  const void* unbound;
};

#define IMC_WORLD_FIELD(f)                                   \
  #f, [](const World& w) -> const void* { return w.f; },    \
      [](World& to, const World& from) { to.f = from.f; }

const std::vector<Field>& fields() {
  static const std::vector<Field> rows = {
      {IMC_WORLD_FIELD(auditor),
       []() -> const void* { return &audit::global(); },
       &audit::detail::process_wide()},
      {IMC_WORLD_FIELD(arena), []() -> const void* { return arena::current(); },
       nullptr},
      {IMC_WORLD_FIELD(fault), []() -> const void* { return fault::active(); },
       nullptr},
      {IMC_WORLD_FIELD(repl), []() -> const void* { return repl::active(); },
       nullptr},
      // A compiled-out accessor is a constexpr nullptr; the field still
      // binds.
      {IMC_WORLD_FIELD(recorder),
       IMC_TRACE_ENABLED ? +[]() -> const void* { return trace::global(); }
                         : nullptr,
       nullptr},
      {IMC_WORLD_FIELD(meter),
       IMC_PROF_ENABLED ? +[]() -> const void* { return prof::meter(); }
                        : nullptr,
       nullptr},
      {IMC_WORLD_FIELD(log), nullptr, nullptr},
      {IMC_WORLD_FIELD(chunks), nullptr, nullptr},
  };
  return rows;
}

#undef IMC_WORLD_FIELD

// What the hooks reach through `f` right now.
const void* seen(const Field& f) {
  return f.accessor != nullptr ? f.accessor() : f.get(world());
}

void expect_unbound() {
  for (const Field& f : fields()) {
    EXPECT_EQ(f.get(world()), nullptr) << f.name;
    EXPECT_EQ(seen(f), f.unbound) << f.name;
  }
}

void expect_bound(const World& bound) {
  for (const Field& f : fields()) {
    EXPECT_EQ(f.get(world()), f.get(bound)) << f.name;
    EXPECT_EQ(seen(f), f.get(bound)) << f.name;
  }
}

// Binds one World, nests a second that differs from it only in field `f`,
// and checks that `f` alone reads the inner object while every other field
// is inherited, that the unbind restores the outer binding exactly, and
// that the outer unbind restores the unbound defaults.
void expect_nests_and_restores(const Field& f) {
  Objects objects;
  expect_unbound();
  const World outer = objects.binding(0);
  const World inner = objects.binding(1);
  {
    BindWorld bind_outer(outer);
    expect_bound(outer);
    World nested = world();
    f.copy(nested, inner);
    {
      BindWorld bind_inner(nested);
      for (const Field& g : fields()) {
        const World& expected = &g == &f ? inner : outer;
        EXPECT_EQ(g.get(world()), g.get(expected)) << f.name << g.name;
        EXPECT_EQ(seen(g), g.get(expected)) << f.name << g.name;
      }
    }
    expect_bound(outer);
  }
  expect_unbound();
}

const Field& field(std::string_view name) {
  for (const Field& f : fields()) {
    if (name == f.name) return f;
  }
  ADD_FAILURE() << "no World field " << name;
  return fields().front();
}

TEST(World, EveryFieldBindsNestsAndRestores) {
  for (const Field& f : fields()) expect_nests_and_restores(f);
}

// The binding tests of the modules whose fields the World carries, each one
// row of the table above.
TEST(Arena, ScopedBindingNestsLifo) {
  expect_nests_and_restores(field("arena"));
}

TEST(FaultBinding, ScopedPlanBindsAndUnwindsLifo) {
  expect_nests_and_restores(field("fault"));
}

TEST(ReplBinding, ScopedPolicyBindsAndUnwindsLifo) {
  expect_nests_and_restores(field("repl"));
}

TEST(TraceBinding, ScopedRecorderNestsAndUnwinds) {
  expect_nests_and_restores(field("recorder"));
}

TEST(ProfBinding, ScopedProfNestsAndUnwinds) {
  expect_nests_and_restores(field("meter"));
}

TEST(World, UnboundLogLinesGoToStderr) {
  ASSERT_EQ(world().log, nullptr);
  testing::internal::CaptureStderr();
  log_message(LogLevel::kWarn, "unbound world speaking");
  EXPECT_NE(testing::internal::GetCapturedStderr().find(
                "[WARN] unbound world speaking"),
            std::string::npos);
}

// The golden table's fallback row: DataSpaces loses its only server, and
// the run replays through MPI-IO. Without the fallback the same Spec fails
// and leaks its clients' library pools.
Spec crashed_spec(bool fallback) {
  Spec spec;
  spec.app = workflow::AppSel::kLaplace;
  spec.method = workflow::MethodSel::kDataspacesNative;
  spec.machine = hpc::titan();
  spec.nsim = 8;
  spec.nana = 4;
  spec.steps = 2;
  spec.laplace_rows = 64;
  spec.laplace_cols_per_proc = 64;
  spec.fault.server_crashes = {{1e-3, 0}};
  spec.fallback.to_mpi_io = fallback;
  return spec;
}

TEST(World, FallbackReplayReturnsWithTheCallersWorldRestored) {
  const RunResult direct = workflow::run(crashed_spec(true));
  ASSERT_TRUE(direct.fault.fallback_activated);
  ASSERT_TRUE(direct.ok) << direct.failure_summary();

  Objects objects;
  const World caller = objects.binding(0);
  BindWorld bind(caller);
  const RunResult bound = workflow::run(crashed_spec(true));
  expect_bound(caller);
  // The run bound its own injector and coordinator over the caller's, so
  // the caller's World did not change what it simulated.
  EXPECT_TRUE(bound.ok) << bound.failure_summary();
  EXPECT_EQ(bound.run_digest, direct.run_digest);
  EXPECT_EQ(bound.leaks, direct.leaks);
}

#if IMC_CHECK_ENABLED

TEST(World, SweepJobRunChargesItsWorldContextLedger) {
  sweep::WorldContext context;
  RunResult result;
  context.run([&result] { result = workflow::run(crashed_spec(false)); });
  ASSERT_FALSE(result.ok);
  ASSERT_FALSE(result.leaks.empty());
  EXPECT_EQ(context.auditor().leaks(), result.leaks);
}

TEST(World, TwoRunsInOneJobEachReportOnlyTheirOwnLeaks) {
  Spec clean = crashed_spec(false);
  clean.fault = fault::Plan{};
  RunResult first;
  RunResult second;
  RunResult third;
  sweep::WorldContext context;
  context.run([&] {
    first = workflow::run(crashed_spec(false));
    second = workflow::run(crashed_spec(false));
    third = workflow::run(clean);
  });
  ASSERT_FALSE(first.leaks.empty());
  EXPECT_EQ(second.leaks, first.leaks);
  EXPECT_TRUE(third.ok) << third.failure_summary();
  EXPECT_TRUE(third.leaks.empty());
}

#endif  // IMC_CHECK_ENABLED

}  // namespace
}  // namespace imc
